"""hierconn benchmark: one command per workload, run from the root of a checkout.

    python3 perfbench/run.py --workload cv-acceptance --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each run sets up the inputs five times, each in a fresh process (the median
is ``setup_s``), then runs the workload in a fresh process with BLAS pinned to
one thread. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it runs the workload once untraced and once traced and reports
the per-layer metrics, including the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Earlier lines record the environment, every check and every
metric by name and unit. Spans of traced runs are written to
``.perfbench/traces/``. ``--smoke`` runs every workload at a tiny size, traced
and untraced, and fails unless every metric is emitted with its unit.

The program is imported from ``src/`` of the checkout; without it the command
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # every run ends, with or without a result, within 180 s
STATE_DIR = Path(".perfbench")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(args: list[str], deadline: float) -> float:
    """Run one workload process to completion; returns its wall time."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + args[0])
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *args],
            env=_child_env(), stdout=sys.stderr, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} did not finish within the time limit") from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} process exited with code {proc.returncode}")
    return elapsed


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _median(values):
    return float(statistics.median(values))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Set up, run, check; returns the pieces of the result line."""
    deadline = time.monotonic() + DEADLINE_S
    run_id = uuid.uuid4().hex
    work = STATE_DIR / "work" / f"{workload}-s{seed}-{run_id[:12]}"
    common = ["--workload", workload, "--seed", str(seed), "--size", size, "--run-id", run_id]
    try:
        setup_s, digests, generate_s = [], [], []
        for i in range(SETUP_REPEATS):
            target = work / f"setup{i}"
            setup_s.append(_child(["setup", *common, "--dir", str(target),
                                   *(["--trace"] if trace else [])], deadline))
            digests.append(_tree_digest(target / "inputs"))
            generate_s.append(json.loads((target / "setup.json").read_text())["generate_s"])
            if i:
                shutil.rmtree(target)
        setup_dir = work / "setup0"
        setup_check = {
            "name": "inputs and fixture byte-identical across set-ups",
            "ok": len(set(digests)) == 1,
            "detail": f"{len(digests)} set-ups, {len(set(digests))} distinct sha256",
        }

        def run(traced: bool) -> dict:
            result_path = setup_dir / ("result_traced.json" if traced else "result.json")
            _child(["run", *common, "--dir", str(setup_dir), "--seconds", str(seconds),
                    "--result", str(result_path), *(["--trace"] if traced else [])], deadline)
            return json.loads(result_path.read_text())

        results = [run(False)]
        if trace:
            results.append(run(True))
            _write_trace(workload, seed, run_id, setup_dir, results[-1]["env"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"setup_s": setup_s, "generate_s": generate_s, "setup_check": setup_check,
            "results": results}


def _write_trace(workload: str, seed: int, run_id: str, setup_dir: Path, env: dict) -> None:
    """All spans of this run (set-up and workload processes) in one file."""
    traces = STATE_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    with open(traces / f"{workload}-seed{seed}-{run_id[:12]}.jsonl", "w") as out:
        out.write(json.dumps({"run": run_id, "workload": workload, "seed": seed,
                              "env": env}) + "\n")
        for name in ("setup_spans.jsonl", "run_spans.jsonl"):
            path = setup_dir / name
            if path.exists():
                out.write(path.read_text())


def _ops(results: list[dict], setup_check: dict) -> tuple[list[dict], int, int]:
    """Checks, attempted and failed operations over every workload process.

    An operation is one training batch, one scored subject, one CLI command or
    one check; failures are skipped batches, non-finite scores, nonzero exits
    and failed checks."""
    checks = [setup_check] + [c for r in results for c in r["checks"]]
    attempted = len(checks)
    failed = sum(not c["ok"] for c in checks)
    for result in results:
        for rec in result["repeats"]:
            attempted += rec["commands"] + rec.get("batches", 0) + rec.get("scored", 0)
            failed += (rec["rc"] != 0) + rec.get("skipped", 0) + rec.get("nonfinite_scores", 0)
    return checks, attempted, failed


def _metric(name: str, value, missing: str | None = None) -> dict:
    entry = {"value": value, "unit": UNITS[name]}
    if missing is not None:
        entry["missing"] = missing
    return entry


def end_to_end(workload: str, run: dict) -> tuple[dict, dict]:
    """The end_to_end metrics, and the workload-specific names printed alongside
    (train_subjects_per_s, infer_subjects_per_s, interpret_s, cv_auc)."""
    result = run["results"][0]
    repeats = [r for r in result["repeats"] if r["rc"] == 0]
    if not repeats:
        raise BenchError("no repeat of the workload command succeeded")
    metrics = {
        "setup_s": _median(run["setup_s"]),
        "subjects_per_s": _median([r["subjects_per_s"] for r in repeats]),
        "command_s": _median([r["command_s"] for r in repeats]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    aliases = {}
    if workload == "interpret-reference":
        aliases["infer_subjects_per_s"] = (metrics["subjects_per_s"], "subjects/s")
        aliases["interpret_s"] = (metrics["command_s"], "s")
    else:
        aliases["train_subjects_per_s"] = (metrics["subjects_per_s"], "subjects/s")
    if workload == "cv-acceptance":
        aliases["cv_auc"] = (_median([r["cv_auc"] for r in repeats]), "fraction")
    return {k: _metric(k, v) for k, v in metrics.items()}, aliases


def per_layer(workload: str, run: dict) -> dict:
    untraced, traced = run["results"]
    values = {}
    for name in traced["per_layer"][0] if traced["per_layer"] else ():
        values[name] = _median([rec[name] for rec in traced["per_layer"]])
    ok = [r for r in traced["repeats"] if r["rc"] == 0]
    values["train.skipped_batches"] = _median([r.get("skipped", 0) for r in ok] or [0])
    values["evaluate.cv_auc"] = _median([r.get("cv_auc", 0.0) for r in ok] or [0.0])
    values["data.generate_s"] = _median(run["generate_s"])
    base = _median([r["command_s"] for r in untraced["repeats"] if r["rc"] == 0] or [0.0])
    values["trace.overhead_frac"] = (
        _median([r["command_s"] for r in ok]) / base - 1.0 if ok and base else 0.0
    )
    missing = traced.get("missing", {})
    return {
        m.name: _metric(m.name, None, missing[m.name]) if m.name in missing
        else _metric(m.name, values.get(m.name, 0.0))
        for m in PER_LAYER
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str,
            out=sys.stdout) -> dict:
    run = run_workload(workload, seed, seconds, trace, size)
    checks, attempted, failed = _ops(run["results"], run["setup_check"])
    print("env " + json.dumps(run["results"][-1]["env"], sort_keys=True), file=out)
    for c in checks:
        print(f"check {'ok' if c['ok'] else 'FAILED'}: {c['name']} ({c['detail']})", file=out)
    if trace:
        metrics = per_layer(workload, run)
    else:
        metrics, aliases = end_to_end(workload, run)
        aliases["failed_frac"] = (failed / attempted, "fraction")
        for name, (value, unit) in aliases.items():
            print(f"also {name} {value:.6g} {unit}", file=out)
    for name, m in metrics.items():
        if "missing" in m:
            print(f"metric {name} missing {m['unit']} ({m['missing']})", file=out)
        else:
            print(f"metric {name} {m['value']:.6g} {m['unit']}", file=out)
    return {
        "correct": all(c["ok"] for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def smoke() -> int:
    """Every workload, untraced and traced, at a tiny size: every metric emitted
    with its unit, and BENCHMARK.json naming the same metrics as the catalog."""
    problems = []
    spec_path = Path("BENCHMARK.json")
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            if listed != [(m.name, m.unit, m.better) for m in table]:
                problems.append(f"BENCHMARK.json {key} differs from catalog.py")
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from catalog.py")
    for workload in WORKLOADS:
        for trace in (False, True):
            expected = PER_LAYER if trace else END_TO_END
            try:
                line = measure(workload, 0, 0.0, trace, "smoke", out=sys.stderr)
            except BenchError as exc:
                problems.append(f"{workload} trace={int(trace)}: {exc}")
                continue
            got = line["metrics"]
            for m in expected:
                entry = got.get(m.name)
                if entry is None or entry.get("unit") != m.unit:
                    problems.append(f"{workload} trace={int(trace)}: {m.name} not emitted "
                                    f"with unit {m.unit}")
                elif entry["value"] is None:
                    problems.append(f"{workload} trace={int(trace)}: {m.name} missing: "
                                    f"{entry['missing']}")
            extra = set(got) - {m.name for m in expected}
            if extra:
                problems.append(f"{workload} trace={int(trace)}: unexpected {sorted(extra)}")
            print(f"smoke {workload} trace={int(trace)}: {len(got)} metrics", flush=True)
    for p in problems:
        print("smoke FAILED: " + p)
    if not problems:
        print("smoke ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not Path("src/hierconn/__init__.py").is_file():
        print("error: src/hierconn not found; run from the root of a hierconn checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    try:
        line = measure(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
