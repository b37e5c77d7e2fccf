"""Exists only for ``perfbench/spans.py`` ``TARGETS``.

The benchmark harness binds ``repro.core.batchstep.march`` by name.
Nothing calls it: there is no multi-run batch engine.
"""


def march(states, min_width=0) -> int:
    """Retire nothing."""
    return 0
