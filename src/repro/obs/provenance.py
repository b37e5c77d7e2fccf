"""Run provenance: tie a stored result to what produced it.

A *provenance manifest* is a plain JSON-ready dict attached to every
:class:`~repro.core.experiment.ExperimentResult`, recording everything
needed to reproduce (or distrust) the numbers:

- the node-config digest and the workload's behavioural spec,
- the experiment seed, caps, repetitions, and slice length,
- the package version and (best-effort) ``git describe`` of the code,
- rate-cache identity and hit/miss counters at sweep end,
- cumulative per-phase span seconds (from :mod:`repro.obs.tracing`)
  spent producing this result.

Manifests travel through :mod:`repro.core.serialize` and the SQLite
result store unchanged, and ``repro-powercap inspect`` pretty-prints
them for a result file or a stored job.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

__all__ = [
    "PROVENANCE_SCHEMA_VERSION",
    "config_digest",
    "git_describe",
    "build_provenance",
    "render_provenance",
]

PROVENANCE_SCHEMA_VERSION = 1

_git_describe_cache: "str | None | bool" = False  # False = not probed yet


def config_digest(config) -> str:
    """Stable digest of a frozen :class:`NodeConfig`'s full repr."""
    return hashlib.blake2b(repr(config).encode(), digest_size=16).hexdigest()


def git_describe() -> Optional[str]:
    """``git describe --always --dirty`` of the source tree, if any.

    Best-effort and cached per process: returns None when the package
    does not live in a git checkout or git is unavailable.
    """
    global _git_describe_cache
    if _git_describe_cache is False:
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=5.0,
            )
            _git_describe_cache = (
                out.stdout.strip() if out.returncode == 0 else None
            ) or None
        except (OSError, subprocess.SubprocessError):
            _git_describe_cache = None
    return _git_describe_cache


def build_provenance(
    *,
    config,
    workload,
    seed: int,
    caps_w,
    repetitions: int,
    slice_accesses: int,
    rate_cache=None,
    phase_seconds: Optional[Dict[str, float]] = None,
) -> dict:
    """Assemble one result's provenance manifest (JSON-ready dict)."""
    from .. import __version__

    spec = asdict(workload.spec)
    spec.pop("description", None)
    manifest: dict = {
        "schema": PROVENANCE_SCHEMA_VERSION,
        "package_version": __version__,
        "git": git_describe(),
        "created_at": time.time(),
        "config_digest": config_digest(config),
        "workload": {"type": type(workload).__name__, "spec": spec},
        "seed": int(seed),
        "caps_w": [float(c) for c in caps_w],
        "repetitions": int(repetitions),
        "slice_accesses": int(slice_accesses),
        "rate_cache": None,
        "phase_seconds": {
            k: round(float(v), 6) for k, v in (phase_seconds or {}).items()
        },
    }
    if rate_cache is not None:
        manifest["rate_cache"] = {
            "path": str(rate_cache.path),
            "hits": rate_cache.hits,
            "misses": rate_cache.misses,
            "entries": len(rate_cache),
        }
    # Normalise through JSON so a manifest compares equal after a
    # serialize/store round-trip (tuples become lists up front, etc.).
    return json.loads(json.dumps(manifest, sort_keys=True, default=str))


def _render_block(data, indent: int, lines: List[str]) -> None:
    pad = "  " * indent
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                _render_block(value, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(data, list):
        for item in data:
            lines.append(f"{pad}- {_scalar(item)}")
    else:  # pragma: no cover — callers pass dicts/lists
        lines.append(f"{pad}{_scalar(data)}")


def _scalar(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_provenance(manifest: Optional[dict], title: str = "") -> str:
    """Human-readable rendering of one manifest (for ``inspect``)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not manifest:
        lines.append("  (no provenance recorded)")
        return "\n".join(lines)
    _render_block(manifest, 1 if title else 0, lines)
    return "\n".join(lines)
