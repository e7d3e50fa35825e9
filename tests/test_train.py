"""Optimizer, schedule, and training-loop contracts."""

import json
import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

import hierconn.checkpoint
import hierconn.train
from hierconn.autodiff import Tensor, no_grad
from hierconn.checkpoint import _tensor_index, load_checkpoint, save_checkpoint
from hierconn.data import SyntheticSpec, generate_synthetic, planted_edge_means, stratified_kfold
from hierconn.errors import (
    DataError,
    EmptyDataset,
    NonFiniteActivation,
    NonFiniteGradient,
    NonFiniteInput,
    ShapeMismatch,
    ZeroNormToken,
)
from hierconn.losses import LossWeights, total_loss_graph
from hierconn.model import (
    FORWARD_DTYPE,
    ModelConfig,
    ModelParams,
    forward_batch,
    init_params,
    param_specs,
)
from hierconn.train import (
    OptimizerState,
    TrainConfig,
    collect_gradients,
    cosine_lr,
    fit,
    optimizer_step,
    predict_scores,
)


class TestCosineLr:
    def test_endpoints(self):
        assert cosine_lr(0, 1000, 1e-4, 1e-5) == pytest.approx(1e-4, abs=0)
        assert cosine_lr(1000, 1000, 1e-4, 1e-5) == pytest.approx(1e-5, abs=1e-20)

    def test_midpoint(self):
        assert cosine_lr(500, 1000, 1e-4, 1e-5) == pytest.approx(5.5e-5, abs=1e-18)

    def test_monotone_nonincreasing(self):
        values = [cosine_lr(t, 377, 1e-4, 1e-5) for t in range(378)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_out_of_range_step(self):
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 1e-4, 1e-5)


def scalar_params(value=0.5):
    return ModelParams({"w": (1,)}, np.array([value]))


class TestOptimizerStep:
    def test_zero_grads_zero_decay_is_identity(self):
        params = scalar_params(0.7)
        cfg = TrainConfig(weight_decay=0.0)
        state = OptimizerState(params)
        optimizer_step(params, {"w": np.zeros(1)}, state, 1e-3, cfg)
        np.testing.assert_array_equal(params["w"].data, [0.7])

    def test_single_step_closed_form(self):
        # one scalar, g=1, zero state: m_hat = v_hat = 1, so the update is
        # -lr / (1 + eps)
        params = scalar_params(0.0)
        cfg = TrainConfig(weight_decay=0.0)
        state = OptimizerState(params)
        lr = 1e-4
        optimizer_step(params, {"w": np.ones(1)}, state, lr, cfg)
        expected = -lr * 1.0 / (1.0 + cfg.adam_eps)
        assert params["w"].data[0] == pytest.approx(expected, abs=1e-16)
        assert params["w"].data[0] == pytest.approx(-9.999999900000009e-05, abs=1e-16)

    def test_decoupled_decay_only(self):
        params = scalar_params(1.0)
        cfg = TrainConfig(weight_decay=0.1)
        state = OptimizerState(params)
        optimizer_step(params, {"w": np.zeros(1)}, state, 0.01, cfg)
        assert params["w"].data[0] == pytest.approx(1.0 - 0.001, abs=1e-15)

    def test_nonfinite_gradient_rejected_before_state_change(self):
        params = scalar_params(1.0)
        cfg = TrainConfig()
        state = OptimizerState(params)
        with pytest.raises(NonFiniteGradient):
            optimizer_step(params, {"w": np.array([np.nan])}, state, 0.01, cfg)
        assert state.step == 0
        np.testing.assert_array_equal(params["w"].data, [1.0])

    def test_grad_clip(self):
        params = scalar_params(0.0)
        cfg = TrainConfig(weight_decay=0.0, grad_clip_norm=1.0)
        state = OptimizerState(params)
        optimizer_step(params, {"w": np.array([100.0])}, state, 1e-2, cfg)
        clipped = params["w"].data[0]
        params2 = scalar_params(0.0)
        state2 = OptimizerState(params2)
        optimizer_step(params2, {"w": np.array([1.0])}, state2, 1e-2, cfg)
        assert clipped == pytest.approx(params2["w"].data[0], abs=1e-15)

    def test_huge_finite_float32_gradient_still_clips(self):
        # 1e20 is finite in float32 but its float32 square is not: the norm is
        # summed in float64, so the step is the clipped unit step, not zero
        cfg = TrainConfig(weight_decay=0.0, grad_clip_norm=1.0)
        grad = np.array([1e20], np.float32)
        with np.errstate(over="ignore"):
            assert np.isfinite(grad).all() and not np.isfinite(grad * grad).all()
        params = scalar_params(0.0)
        optimizer_step(params, {"w": grad}, OptimizerState(params), 1e-2, cfg)
        unit = scalar_params(0.0)
        optimizer_step(unit, {"w": np.array([1.0])}, OptimizerState(unit), 1e-2, cfg)
        assert params["w"].data[0] != 0.0
        assert params["w"].data[0] == pytest.approx(unit["w"].data[0], abs=1e-15)

    def test_deterministic(self):
        results = []
        for _ in range(2):
            params = scalar_params(0.3)
            cfg = TrainConfig(weight_decay=0.01)
            state = OptimizerState(params)
            for step in range(5):
                optimizer_step(params, {"w": np.array([0.1 * (step + 1)])}, state, 1e-3, cfg)
            results.append(params["w"].data.copy())
        assert np.array_equal(results[0], results[1])


def test_key_biases_get_zero_gradients_and_stay_at_zero():
    # the key bias shifts whole score rows, so every attention sublayer hands it
    # an exact zero gradient, and a decayed adaptive step leaves a zero bias at 0
    config = ModelConfig(n=10, d=16, heads=2, layers=2, k=3, dropout=0.1)
    params = init_params(config, 3)
    rng = np.random.default_rng(0)
    matrices = rng.uniform(-1.0, 1.0, size=(6, config.n, config.n))
    out = forward_batch(matrices, params, config, mode="train", rng=np.random.default_rng(1))
    total, _ = total_loss_graph(out, np.eye(2)[[0, 1, 0, 1, 1, 0]], 0, 10, LossWeights())
    total.backward()
    grads = collect_gradients(params)
    key_biases = [name for name in params.names() if name.endswith(".bk")]
    assert len(key_biases) == 2 * config.layers + 1
    for name in key_biases:
        assert grads[name].dtype == np.float64 and np.all(grads[name] == 0.0), name
    before = params.flat.copy()
    optimizer_step(params, grads, OptimizerState(params), 1e-3, TrainConfig(weight_decay=0.01))
    for name in key_biases:
        assert np.all(params[name].data == 0.0), name
    assert np.count_nonzero(params.flat != before) > params.flat.size // 2


def assert_views_flat(params):
    """Every tensor's data is a view into ``params.flat``, which holds them in name order."""
    for name in params.names():
        assert params[name].data.base is params.flat, name
    np.testing.assert_array_equal(
        params.flat, np.concatenate([params[name].data.ravel() for name in params.names()])
    )


def per_tensor_step(values, grads, m, v, step, lr_t, cfg):
    """The per-tensor AdamW loop, the reference the flat update must match bit for bit."""
    if cfg.grad_clip_norm is not None:
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if norm > cfg.grad_clip_norm:
            grads = {name: g * (cfg.grad_clip_norm / norm) for name, g in grads.items()}
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for name, g in grads.items():
        if cfg.weight_decay:
            values[name] = values[name] * (1.0 - lr_t * cfg.weight_decay)
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
        m_hat, v_hat = m[name] / (1.0 - b1**step), v[name] / (1.0 - b2**step)
        values[name] = values[name] - lr_t * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


FLAT_CONFIG = ModelConfig(n=6, d=8, heads=2, layers=1, k=3)


class TestFlatParameterBuffer:
    """Each tensor views ``ModelParams.flat`` after every operation that makes or
    rewrites the parameters, and the flat update equals the per-tensor one."""

    def test_init_params(self):
        assert_views_flat(init_params(FLAT_CONFIG, 5))

    def test_load_checkpoint(self, tmp_path):
        params = init_params(FLAT_CONFIG, 5)
        _, loaded, _ = load_checkpoint(save_checkpoint(tmp_path / "c.bin", FLAT_CONFIG, params))
        assert_views_flat(loaded)
        np.testing.assert_array_equal(loaded.flat, params.flat)

    @pytest.mark.parametrize(
        "cfg",
        [TrainConfig(weight_decay=0.0), TrainConfig(weight_decay=0.01, grad_clip_norm=0.05)],
        ids=["plain", "clipped-decayed"],
    )
    def test_optimizer_step_matches_per_tensor_reference(self, cfg):
        params = init_params(FLAT_CONFIG, 5)
        values = {name: params[name].data.copy() for name in params.names()}
        m = {name: np.zeros_like(a) for name, a in values.items()}
        v = {name: np.zeros_like(a) for name, a in values.items()}
        state = OptimizerState(params)
        rng = np.random.default_rng(0)
        for step in range(1, 5):
            grads = {name: rng.normal(size=a.shape) for name, a in values.items()}
            optimizer_step(params, grads, state, 1e-3, cfg)
            per_tensor_step(values, grads, m, v, step, 1e-3, cfg)
            assert_views_flat(params)
            for name in params.names():
                assert np.array_equal(params[name].data, values[name]), name

    def test_optimizer_step_refuses_a_rebound_tensor(self):
        params = init_params(FLAT_CONFIG, 5)
        params["head.b2"].data = params["head.b2"].data + 1.0  # no longer a view into flat
        grads = {name: np.ones_like(params[name].data) for name in params.names()}
        state = OptimizerState(params)
        before = params.flat.copy()
        with pytest.raises(ShapeMismatch, match="head.b2"):
            optimizer_step(params, grads, state, 1e-3, TrainConfig())
        assert state.step == 0
        np.testing.assert_array_equal(params.flat, before)

    def test_save_checkpoint_refuses_a_rebound_tensor(self, tmp_path):
        params = init_params(FLAT_CONFIG, 5)
        params["head.b2"].data = params["head.b2"].data + 1.0  # flat keeps the old values
        with pytest.raises(ShapeMismatch, match="head.b2"):
            save_checkpoint(tmp_path / "c.bin", FLAT_CONFIG, params)
        assert list(tmp_path.iterdir()) == []

    def test_astype_refuses_a_rebound_tensor(self):
        params = init_params(FLAT_CONFIG, 5)
        params["embed.w"].data = params["embed.w"].data * 2.0
        with pytest.raises(ShapeMismatch, match="embed.w"):
            params.astype(np.float32)

    def test_a_view_of_flat_under_another_name_still_counts(self):
        # the same memory through another array object, as tests/test_atomic.py installs it
        params = init_params(FLAT_CONFIG, 5)
        params.flat = params.flat.view()
        params.check_views()
        assert params.astype(np.float32).flat.dtype == np.float32

    def test_fit_restores_the_best_epoch_into_flat(self, monkeypatch):
        import hierconn.train as train_mod

        ds, split, config, params, cfg = tiny_setup(epochs=3)
        seen = []

        def recording_scores(matrices, p, c):
            seen.append(p.flat.copy())  # the weights each epoch ends with
            return predict_scores(matrices, p, c)

        keys = iter([(1.0, 1.0), (0.0, 0.0), (0.0, 0.0)])  # epoch 1 stays best
        monkeypatch.setattr(train_mod, "predict_scores", recording_scores)
        monkeypatch.setattr(train_mod, "_val_metric", lambda *args: next(keys))
        report = fit(
            ds.subset(split.train_ids), ds.subset(split.val_ids),
            params, config, cfg, LossWeights(),
        )
        assert report.best_epoch == 1 and len(seen) == 3
        assert_views_flat(params)
        np.testing.assert_array_equal(params.flat, seen[0])
        assert not np.array_equal(params.flat, seen[-1])


def params_wide_step(flat, grads, m, v, step, lr_t, cfg):
    """The update as whole-array passes over ``flat``, the moments and one
    concatenated gradient: the oracle the sliced ``optimizer_step`` must match
    bit for bit."""
    names = sorted(grads)
    g = np.concatenate([grads[name].ravel() for name in names])
    if cfg.grad_clip_norm is not None:
        norm = math.sqrt(sum(float(np.sum(grads[name] * grads[name])) for name in names))
        if norm > cfg.grad_clip_norm:
            g *= cfg.grad_clip_norm / norm
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    if cfg.weight_decay:
        flat *= 1.0 - lr_t * cfg.weight_decay
    scratch = (1.0 - b1) * g
    m *= b1
    m += scratch
    v *= b2
    g *= g
    g *= 1.0 - b2
    v += g
    update = np.divide(m, 1.0 - b1**step, out=g)
    update *= lr_t
    denom = np.sqrt(np.divide(v, 1.0 - b2**step, out=scratch), out=scratch)
    denom += cfg.adam_eps
    update /= denom
    flat -= update


def random_grads(params, rng, scale=1.0):
    return {name: rng.normal(size=params[name].shape) * scale for name in params.names()}


class TestSlicedOptimizerStep:
    """``optimizer_step`` runs its passes over slices of at most ``STEP_SLICE``
    parameters and must give the whole-array passes' bits, allocating no
    params-sized array."""

    @pytest.mark.parametrize("step_slice", [7, hierconn.train.STEP_SLICE],
                             ids=["slices-of-7", "default-slices"])
    @pytest.mark.parametrize("cfg", [
        TrainConfig(weight_decay=0.0),
        TrainConfig(weight_decay=0.01),
        TrainConfig(weight_decay=0.0, grad_clip_norm=0.05),
        TrainConfig(weight_decay=0.01, grad_clip_norm=1e6),  # set, never reached
        TrainConfig(weight_decay=0.01, grad_clip_norm=0.05),
    ], ids=["plain", "decayed", "clipped", "clip-unreached-decayed", "clipped-decayed"])
    def test_matches_the_params_wide_update_bit_for_bit(self, cfg, step_slice, monkeypatch):
        monkeypatch.setattr(hierconn.train, "STEP_SLICE", step_slice)
        params = init_params(FLAT_CONFIG, 5)
        flat = params.flat.copy()
        m, v = np.zeros_like(flat), np.zeros_like(flat)
        state = OptimizerState(params)
        rng = np.random.default_rng(1)
        for step in range(1, 6):
            grads = random_grads(params, rng, scale=0.1 * step)
            optimizer_step(params, grads, state, 1e-3 / step, cfg)
            params_wide_step(flat, grads, m, v, step, 1e-3 / step, cfg)
            assert state.step == step
            assert_views_flat(params)
            for got, expect in ((params.flat, flat), (state.m, m), (state.v, v)):
                np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))

    @pytest.mark.parametrize("cfg", [
        TrainConfig(weight_decay=0.01),
        TrainConfig(weight_decay=0.01, grad_clip_norm=0.05),
    ], ids=["decayed", "clipped-decayed"])
    def test_float32_gradients_have_the_bits_of_their_float64_casts(self, cfg, monkeypatch):
        monkeypatch.setattr(hierconn.train, "STEP_SLICE", 7)
        runs = []
        for dtype in (np.float32, np.float64):
            params = init_params(FLAT_CONFIG, 5)
            state = OptimizerState(params)
            for step in range(1, 4):
                grads = {name: g.astype(np.float32)
                         for name, g in random_grads(params, np.random.default_rng(step)).items()}
                optimizer_step(params, {name: g.astype(dtype) for name, g in grads.items()},
                               state, 1e-3, cfg)
            runs.append((params.flat, state.m, state.v))
        for got, expect in zip(*runs):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))

    @pytest.mark.parametrize("grad_clip_norm", [None, 0.05])
    def test_one_step_allocates_under_a_quarter_of_the_parameters(self, grad_clip_norm):
        params = init_params(ModelConfig(n=16, d=96, heads=2, layers=2, k=3), 5)
        grads = random_grads(params, np.random.default_rng(2))
        state = OptimizerState(params)
        cfg = TrainConfig(weight_decay=0.01, grad_clip_norm=grad_clip_norm)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            optimizer_step(params, grads, state, 1e-3, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert state.step == 1
        assert peak < params.flat.nbytes // 4, (peak, params.flat.nbytes)

    def test_nan_in_the_last_slice_leaves_every_state_unchanged(self, monkeypatch):
        monkeypatch.setattr(hierconn.train, "STEP_SLICE", 7)
        params = init_params(FLAT_CONFIG, 5)
        state = OptimizerState(params)
        rng = np.random.default_rng(3)
        cfg = TrainConfig(weight_decay=0.01, grad_clip_norm=0.05)
        optimizer_step(params, random_grads(params, rng), state, 1e-3, cfg)  # moments nonzero
        before = [a.copy() for a in (params.flat, state.m, state.v)]
        grads = random_grads(params, rng)
        last = params.names()[-1]
        assert grads[last].size > 7  # the tensor spans several slices
        grads[last].reshape(-1)[-1] = np.nan
        with pytest.raises(NonFiniteGradient, match=last):
            optimizer_step(params, grads, state, 1e-3, cfg)
        assert state.step == 1
        for got, expect in zip((params.flat, state.m, state.v), before):
            np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))


def tiny_dataset(seed=0, subjects=24, n=12):
    spec = SyntheticSpec(
        n=n,
        subject_count=subjects,
        planted_subgraphs=[tuple(range(n // 4, n // 4 + max(4, n // 5)))],
        signal_strength=0.6,
        noise_level=0.12,
        seed=seed,
    )
    return generate_synthetic(spec)


def tiny_setup(seed=0, epochs=3, **cfg_kw):
    ds = tiny_dataset(seed)
    folds = stratified_kfold(ds, k=5, seed=seed)
    split = folds[0]
    config = ModelConfig(n=ds.n, d=8, heads=2, layers=1, k=3, dropout=0.1)
    params = init_params(config, seed)
    cfg = TrainConfig(
        epochs=epochs, batch_size=8, lr=1e-3, lr_min=1e-4, seed=seed,
        early_stop_patience=0, **cfg_kw,
    )
    return ds, split, config, params, cfg


class TestFit:
    def test_patience_zero_runs_all_epochs(self):
        ds, split, config, params, cfg = tiny_setup(epochs=3)
        report = fit(
            ds.subset(split.train_ids), ds.subset(split.val_ids),
            params, config, cfg, LossWeights(),
        )
        assert report.epochs_run == 3
        assert len(report.history) == 3

    def test_early_stopping_triggers(self):
        ds, split, config, params, cfg = tiny_setup(epochs=50)
        cfg = TrainConfig(**{**cfg.to_dict(), "early_stop_patience": 2})
        report = fit(
            ds.subset(split.train_ids), ds.subset(split.val_ids),
            params, config, cfg, LossWeights(),
        )
        assert report.epochs_run < 50
        assert report.best_epoch <= report.epochs_run

    def test_deterministic_given_seed(self, tmp_path):
        reports, checkpoints, logs = [], [], []
        for run in ("a", "b"):
            ds, split, config, params, cfg = tiny_setup(epochs=2)
            out = tmp_path / run
            report = fit(
                ds.subset(split.train_ids), ds.subset(split.val_ids),
                params, config, cfg, LossWeights(), out_dir=out,
            )
            reports.append(report)
            checkpoints.append((out / "checkpoint.bin").read_bytes())
            logs.append((out / "training_log.csv").read_bytes())
        assert checkpoints[0] == checkpoints[1]
        assert logs[0] == logs[1]
        a, b = (r.to_dict() for r in reports)
        a.pop("checkpoint_path"), b.pop("checkpoint_path")  # differs by out dir
        assert a == b

    def test_single_full_batch_step_decreases_loss_with_small_lr(self):
        ds, split, config, params, cfg = tiny_setup()
        records = ds.subset(split.train_ids)[:8]
        matrices = np.stack([r.matrix.values for r in records])
        targets = np.eye(2)[[r.label for r in records]]
        weights = LossWeights()
        cfg = TrainConfig(
            epochs=1, batch_size=8, lr=1e-6, lr_min=1e-7, weight_decay=0.0,
            mixup_enabled=False, seed=0,
        )
        state = OptimizerState(params)
        for _ in range(5):
            out = forward_batch(matrices, params, config, mode="eval")
            before, _ = total_loss_graph(out, targets, 0, 10, weights)
            params.zero_grad()
            before.backward()
            grads = {name: params[name].grad for name in params.names()}
            optimizer_step(params, grads, state, 1e-6, cfg)
            with no_grad():
                after, _ = total_loss_graph(
                    forward_batch(matrices, params, config, mode="eval"),
                    targets, 0, 10, weights,
                )
            assert after.item() < before.item()

    def test_checkpoint_roundtrip_reproduces_logits(self, tmp_path):
        ds, split, config, params, cfg = tiny_setup(epochs=2)
        fit(
            ds.subset(split.train_ids), ds.subset(split.val_ids),
            params, config, cfg, LossWeights(), out_dir=tmp_path,
        )
        loaded_config, loaded_params, meta = load_checkpoint(tmp_path / "checkpoint.bin")
        assert loaded_config == config
        assert meta["best_epoch"] >= 1
        test = ds.subset(split.test_ids)
        matrices = np.stack([r.matrix.values for r in test])
        a = predict_scores(matrices, params, config)
        b = predict_scores(matrices, loaded_params, loaded_config)
        assert np.array_equal(a, b)

    def test_empty_dataset_rejected(self):
        ds, split, config, params, cfg = tiny_setup()
        with pytest.raises(EmptyDataset):
            fit([], ds.subset(split.val_ids), params, config, cfg, LossWeights())

    @pytest.mark.parametrize(
        "error",
        [NonFiniteGradient("injected"), NonFiniteActivation("injected"),
         NonFiniteInput("injected"), ZeroNormToken(0)],
        ids=lambda e: type(e).__name__,
    )
    def test_skipped_batches_counted(self, monkeypatch, error):
        ds, split, config, params, cfg = tiny_setup(epochs=1)
        import hierconn.train as train_mod

        def bad_collect(_params):
            raise error

        monkeypatch.setattr(train_mod, "collect_gradients", bad_collect)
        with pytest.warns(RuntimeWarning) as record:
            report = fit(
                ds.subset(split.train_ids), ds.subset(split.val_ids),
                params, config, cfg, LossWeights(),
            )
        assert report.skipped_batches == report.total_steps
        assert str(record[0].message) == (
            f"all {report.total_steps} optimizer steps were skipped; "
            f"the first raised {type(error).__name__}"
        )

    def test_failed_validation_counts_toward_patience_and_keeps_the_best(
        self, monkeypatch, tmp_path
    ):
        # epoch 2's validation forward overflows: that epoch records no metric,
        # counts toward patience, and epoch 1's weights are still saved as best
        import hierconn.train as train_mod

        ds, split, config, params, cfg = tiny_setup(epochs=5)
        cfg = TrainConfig(**{**cfg.to_dict(), "early_stop_patience": 2})
        seen = []

        def scores(matrices, p, c):
            seen.append(p.flat.copy())
            if len(seen) == 2:
                raise NonFiniteActivation("non-finite values after head")
            return predict_scores(matrices, p, c)

        keys = iter([(0.9, 0.9), (0.5, 0.5)])  # epochs 1 and 3
        monkeypatch.setattr(train_mod, "predict_scores", scores)
        monkeypatch.setattr(train_mod, "_val_metric", lambda *args: next(keys))
        report = fit(
            ds.subset(split.train_ids), ds.subset(split.val_ids),
            params, config, cfg, LossWeights(), out_dir=tmp_path,
        )
        assert [e["val_metric"] for e in report.history] == [0.9, None, 0.5]
        assert (report.best_epoch, report.epochs_run) == (1, 3)
        _, saved, meta = load_checkpoint(tmp_path / "checkpoint.bin")
        assert meta["best_epoch"] == 1
        np.testing.assert_array_equal(saved.flat, seen[0])

    @pytest.mark.parametrize("skip", [False, True], ids=["steps", "skipped"])
    def test_each_step_graph_freed_before_next_forward(self, monkeypatch, skip):
        # a chunk's graph (reached through its logits) must be gone when the
        # next forward starts, and the parameter gradients when a step's first
        # chunk starts, whether the step completed or was skipped; batches of 8
        # run as one chunk, batches of 20 as chunks of 16 and 4
        import hierconn.train as train_mod

        original = train_mod.forward_batch
        refs, sizes, step_rngs = [], [], []

        def tracking_forward(matrices, params, config, **kwargs):
            assert all(ref() is None for ref in refs), f"forward {len(refs)}: graph alive"
            assert kwargs["mode"] == "train"
            if not step_rngs or kwargs["rng"] is not step_rngs[-1]:  # a new step
                assert all(params[name].grad is None for name in params.names())
                step_rngs.append(kwargs["rng"])
            out = original(matrices, params, config, **kwargs)
            refs.append(weakref.ref(out.z_g))
            sizes.append(len(matrices))
            return out

        def bad_collect(_params):
            raise NonFiniteGradient("injected")

        monkeypatch.setattr(train_mod, "forward_batch", tracking_forward)
        if skip:
            monkeypatch.setattr(train_mod, "collect_gradients", bad_collect)
        for batch_size, subjects in ((8, 24), (20, 60)):
            ds = tiny_dataset(subjects=subjects)
            split = stratified_kfold(ds, k=5, seed=0)[0]
            config = ModelConfig(n=ds.n, d=8, heads=2, layers=1, k=3, dropout=0.1)
            cfg = TrainConfig(epochs=2, batch_size=batch_size, lr=1e-3, lr_min=1e-4,
                              early_stop_patience=0)
            refs.clear(), sizes.clear(), step_rngs.clear()
            report = fit(
                ds.subset(split.train_ids), ds.subset(split.val_ids),
                init_params(config, 0), config, cfg, LossWeights(),
            )
            assert len(step_rngs) == report.total_steps > 2
            assert report.skipped_batches == (report.total_steps if skip else 0)
            assert all(ref() is None for ref in refs)
            train = len(split.train_ids)
            batches = [min(batch_size, train - lo) for lo in range(0, train, batch_size)]
            chunks = [min(16, b - lo) for b in batches for lo in range(0, b, 16)]
            assert sizes == 2 * chunks
            assert max(sizes) == min(batch_size, 16)


class TestLearnability:
    def test_planted_signal_reaches_high_val_auc(self):
        """Solvability oracle: mean planted-edge value alone separates the
        classes, so training must push validation AUC >= 0.95 quickly."""
        planted = tuple(range(10, 20))
        spec = SyntheticSpec(
            n=30, subject_count=200, planted_subgraphs=[planted],
            signal_strength=0.5, noise_level=0.1, seed=42,
        )
        ds = generate_synthetic(spec)

        patients, controls = planted_edge_means(ds, planted)
        from hierconn.metrics import compute_metrics

        feature_scores = np.concatenate([patients, controls])
        feature_labels = np.concatenate(
            [np.ones(len(patients), int), np.zeros(len(controls), int)]
        )
        oracle = compute_metrics(
            (feature_scores - feature_scores.min())
            / (feature_scores.max() - feature_scores.min()),
            feature_labels,
        )
        assert oracle.auc >= 0.95  # the task is solvable by a linear readout

        folds = stratified_kfold(ds, k=5, seed=42)
        split = folds[0]
        config = ModelConfig(n=30, d=32, heads=4, layers=2, k=4, dropout=0.1)
        params = init_params(config, 42)
        cfg = TrainConfig(
            epochs=50, batch_size=32, lr=3e-3, lr_min=3e-4,
            early_stop_patience=10, seed=42,
        )
        report = fit(
            ds.subset(split.train_ids), ds.subset(split.val_ids),
            params, config, cfg, LossWeights(),
        )
        assert report.best_val_metric >= 0.95
        assert report.epochs_run <= 50


class TestCheckpointContainer:
    def test_bit_exact_roundtrip(self, tmp_path):
        config = ModelConfig(n=6, d=8, heads=2, layers=1, k=3)
        params = init_params(config, 5)
        path = save_checkpoint(tmp_path / "c.bin", config, params, meta={"note": "x"})
        loaded_config, loaded, meta = load_checkpoint(path)
        assert loaded_config == config
        assert meta == {"note": "x"}
        for name in params.names():
            assert np.array_equal(loaded[name].data, params[name].data)
            assert loaded[name].data.flags.writeable

    @pytest.mark.parametrize("read_slice", [7, hierconn.checkpoint.READ_SLICE],
                             ids=["slices-of-7", "default-slices"])
    def test_load_in_a_dtype_is_the_cast_of_the_payload(self, read_slice, tmp_path, monkeypatch):
        """Read in slices, a float64 load holds the payload's bits and is trainable;
        a ``FORWARD_DTYPE`` load holds the bits of the float64 load's ``flat`` cast to
        it, as constant tensors, overflow, underflow and signed zeros included."""
        monkeypatch.setattr(hierconn.checkpoint, "READ_SLICE", read_slice)
        config = ModelConfig(n=6, d=8, heads=2, layers=1, k=3)
        params = init_params(config, 5)
        params.flat[:5] = [1e39, -1e39, 1e-46, -0.0, 3.0000001]
        path = save_checkpoint(tmp_path / "c.bin", config, params)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        payload = np.frombuffer(blob, "<f8", offset=16 + header_len)
        master = load_checkpoint(path)[1]
        assert master.flat.dtype == np.float64
        assert np.array_equal(master.flat.view(np.uint64), payload.view(np.uint64))
        assert all(t.requires_grad for t in master.tensors.values())
        with np.errstate(over="ignore"):
            cast = master.flat.astype(FORWARD_DTYPE)
            _, loaded, _ = load_checkpoint(path, FORWARD_DTYPE)
        assert loaded.flat.dtype == FORWARD_DTYPE
        assert np.array_equal(loaded.flat.view(np.uint32), cast.view(np.uint32))
        assert not any(t.requires_grad for t in loaded.tensors.values())
        loaded.check_views()

    def test_payload_is_every_tensor_packed_in_name_order(self, tmp_path):
        config = ModelConfig(n=6, d=8, heads=2, layers=1, k=3)
        params = init_params(config, 5)
        blob = save_checkpoint(tmp_path / "c.bin", config, params).read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        packed = b"".join(
            np.ascontiguousarray(params[name].data, dtype="<f8").tobytes()
            for name in params.names()
        )
        assert blob[16 + header_len :] == packed

    @pytest.mark.parametrize(
        "field, value", [("shape", "ab"), ("shape", [None]), ("name", ["x"])],
        ids=["string-shape", "null-dimension", "list-name"],
    )
    def test_malformed_tensor_index_entry_is_data_error(self, field, value, tmp_path):
        config = ModelConfig(n=6, d=8, heads=2, layers=1, k=3)
        path = save_checkpoint(tmp_path / "c.bin", config, init_params(config, 5))
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + header_len])
        header["tensors"][0][field] = value
        text = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + header_len :])
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        from hierconn.errors import ParseError

        config = ModelConfig(n=6, d=8, heads=2, layers=1, k=3)
        path = save_checkpoint(tmp_path / "c.bin", config, init_params(config, 5))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @pytest.mark.parametrize("defect", ["wrong shape", "missing tensor"])
    def test_tensors_disagreeing_with_header_config_rejected(self, defect, tmp_path):
        from hierconn.errors import ShapeMismatch

        config = ModelConfig(n=6, d=8, heads=2, layers=1, k=3)
        if defect == "wrong shape":  # tensors of an n=7 model under an n=6 header
            params = init_params(ModelConfig(n=7, d=8, heads=2, layers=1, k=3), 5)
        else:
            params = init_params(config, 5)
            del params.tensors["aux.b"]
        path = save_checkpoint(tmp_path / "c.bin", config, params)
        with pytest.raises(ShapeMismatch):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "defect",
        [
            "short file", "no tensor index", "invalid config", "zero heads", "bool heads",
            "fractional d", "offset into header", "header length past end of file",
            "payload past end of file",
        ],
    )
    def test_malformed_container_is_parse_error(self, defect, tmp_path):
        """Lengths are checked against the file's size before anything that large is
        read or allocated, so a huge corrupt length is a ParseError, not a MemoryError."""
        from hierconn.errors import ParseError

        config = ModelConfig(n=6, d=8, heads=2, layers=1, k=3)
        path = save_checkpoint(tmp_path / "c.bin", config, init_params(config, 5))
        blob = path.read_bytes()
        if defect == "short file":
            blob = blob[:10]
        elif defect == "header length past end of file":
            blob = blob[:8] + struct.pack("<Q", 2**63) + blob[16:]
        elif defect == "payload past end of file":  # a valid header of a ~10^13-weight model
            huge = ModelConfig(n=6, d=2**20, heads=2, layers=1, k=3)
            header = {"config": huge.to_dict(), "meta": {}, "tensors": _tensor_index(
                {name: shape for name, (shape, _) in param_specs(huge).items()})}
            text = json.dumps(header, sort_keys=True).encode()
            blob = blob[:8] + struct.pack("<Q", len(text)) + text
        else:
            (header_len,) = struct.unpack("<Q", blob[8:16])
            header = json.loads(blob[16 : 16 + header_len])
            if defect == "no tensor index":
                del header["tensors"]
            elif defect == "invalid config":
                header["config"]["heads"] = 3  # d=8 does not split into 3 heads
            elif defect == "zero heads":
                header["config"]["heads"] = 0
            elif defect == "bool heads":
                header["config"]["heads"] = True
            elif defect == "fractional d":
                header["config"]["d"] = 8.5
            else:
                header["tensors"][0]["offset"] = -8
            text = json.dumps(header, sort_keys=True).encode()
            blob = blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + header_len :]
        path.write_bytes(blob)
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        from hierconn.errors import ParseError

        with pytest.raises(ParseError):
            load_checkpoint(path)
