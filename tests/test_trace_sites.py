"""Every call site the benchmark tracer wraps or reads still exists.

``perfbench/tracer.py`` patches hierconn names from outside the package, and a
renamed or removed name only shows up later as a per-layer metric reported
``missing``. This reads the tracer's and the catalog's site tables, without
changing them, and resolves each name the way the tracer does.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import catalog
    import tracer
finally:
    sys.path.remove(str(PERFBENCH))


def test_every_traced_site_resolves():
    sites = {
        *tracer.SPAN_SITES,
        *(f"hierconn.autodiff.Tensor.{op}" for op in catalog.OP_KINDS),
        *catalog.FUNCTION_OP_KINDS,
        *(site for metric in catalog.PER_LAYER for site in metric.sites),
    }
    unresolved = []
    for site in sorted(sites):
        try:
            tracer._resolve(site)
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{site}: {exc}")
    assert not unresolved, "\n".join(unresolved)
