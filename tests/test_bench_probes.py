"""The benchmark's probes must find the package names they wrap.

``bench/tracing.py`` patches each name in ``LAYER_TARGETS`` (which holds
``PROBES``) and counts each name in ``COUNTERS``.  A name that no longer
resolves is only listed as absent at run time and its layer reads 0, so a
refactor could blind a benchmark layer without any test failing.  This
loads the tracing module by path and changes nothing under ``bench/``.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_probe_resolves():
    tracing = _load_tracing()
    assert set(tracing.PROBES) <= set(tracing.LAYER_TARGETS)
    names = [(module, attribute) for module, attribute, *_ in
             tracing.LAYER_TARGETS + tracing.COUNTERS]
    absent = [f"{module}.{attribute}" for module, attribute in names
              if tracing._resolve(module, attribute) is None]
    assert absent == []
    for module, attribute in names:
        owner, leaf = tracing._resolve(module, attribute)
        assert callable(getattr(owner, leaf)), f"{module}.{attribute}"
