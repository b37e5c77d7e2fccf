"""perfbench's outside-in bindings still point at real code.

``perfbench/spans.py`` patches the functions in its ``TARGETS`` table by
name, and ``perfbench/run.py`` / ``perfbench/paths.py`` read engine
counters by attribute.  A rename in ``src/`` would otherwise surface
only as an ``AttributeError`` in a traced benchmark run.  This test
reads perfbench; it does not run it.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Engine counters the benchmark reports per layer.
COUNTERS = {
    "runs", "quanta", "block_quanta", "batch_quanta",
    "rate_cache_hits", "rate_cache_misses", "traces_simulated",
}


def _load_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize(
    "module_name,attr_path", [t[:2] for t in TARGETS],
    ids=[t[2] for t in TARGETS],
)
def test_span_target_resolves(module_name, attr_path):
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, attr)
    assert callable(getattr(raw, "__func__", raw))


def test_engine_counters_exist():
    from repro.obs.metrics import engine_metrics

    text = "\n".join(
        (PERFBENCH / name).read_text() for name in ("run.py", "paths.py")
    )
    read = set(
        re.findall(r"(?:\bm|engine_metrics\(\))\.(\w+)\.value\b", text)
    )
    assert read >= COUNTERS
    metrics = engine_metrics()
    for name in sorted(read):
        assert isinstance(getattr(metrics, name).value, (int, float)), name
