"""Physical-unit helpers used throughout the simulator.

The simulator mixes quantities from several domains (power, energy,
frequency, time, capacity).  To keep call sites unambiguous, every
public API in :mod:`repro` states its unit in the parameter name
(``cap_watts``, ``freq_hz``, ``quantum_s``) and this module provides the
conversion helpers plus light validation.

Conventions
-----------
- power:      watts (W)
- energy:     joules (J)
- frequency:  hertz (Hz); megahertz helpers provided because the paper
  reports frequencies in MHz (e.g. the 1,200 MHz DVFS floor)
- time:       seconds (s)
- capacity:   bytes (B); KiB/MiB helpers use binary (1024) multiples,
  matching cache-size conventions (32KB L1 means 32 KiB)
"""

from __future__ import annotations

import math

from .errors import UnitsError

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "MHZ",
    "GHZ",
    "kib",
    "mib",
    "gib",
    "mhz",
    "ghz",
    "hz_to_mhz",
    "hz_to_ghz",
    "ns",
    "us",
    "ms",
    "seconds_to_ns",
    "ns_to_seconds",
    "joules",
    "watt_hours_to_joules",
    "joules_to_watt_hours",
    "require_positive",
    "require_non_negative",
    "require_fraction",
    "format_duration",
    "format_bytes",
]

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

MHZ = 1.0e6
GHZ = 1.0e9


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive and finite, else raise."""
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise UnitsError(f"{name} must be a positive finite number, got {value!r}")
    return v


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` if non-negative and finite, else raise."""
    v = float(value)
    if not math.isfinite(v) or v < 0.0:
        raise UnitsError(f"{name} must be a non-negative finite number, got {value!r}")
    return v


def require_fraction(value: float, name: str) -> float:
    """Return ``value`` if within ``[0, 1]``, else raise."""
    v = float(value)
    if not math.isfinite(v) or not 0.0 <= v <= 1.0:
        raise UnitsError(f"{name} must lie in [0, 1], got {value!r}")
    return v


def kib(n: float) -> int:
    """Kibibytes to bytes (32 -> 32768)."""
    return int(require_non_negative(n, "kib") * KIB)


def mib(n: float) -> int:
    """Mebibytes to bytes."""
    return int(require_non_negative(n, "mib") * MIB)


def gib(n: float) -> int:
    """Gibibytes to bytes."""
    return int(require_non_negative(n, "gib") * GIB)


def mhz(n: float) -> float:
    """Megahertz to hertz."""
    return require_non_negative(n, "mhz") * MHZ


def ghz(n: float) -> float:
    """Gigahertz to hertz."""
    return require_non_negative(n, "ghz") * GHZ


def hz_to_mhz(f_hz: float) -> float:
    """Hertz to megahertz."""
    return require_non_negative(f_hz, "f_hz") / MHZ


def hz_to_ghz(f_hz: float) -> float:
    """Hertz to gigahertz."""
    return require_non_negative(f_hz, "f_hz") / GHZ


def ns(n: float) -> float:
    """Nanoseconds to seconds."""
    return require_non_negative(n, "ns") * 1e-9


def us(n: float) -> float:
    """Microseconds to seconds."""
    return require_non_negative(n, "us") * 1e-6


def ms(n: float) -> float:
    """Milliseconds to seconds."""
    return require_non_negative(n, "ms") * 1e-3


def seconds_to_ns(t_s: float) -> float:
    """Seconds to nanoseconds."""
    return require_non_negative(t_s, "t_s") * 1e9


def ns_to_seconds(t_ns: float) -> float:
    """Nanoseconds to seconds."""
    return require_non_negative(t_ns, "t_ns") * 1e-9


def joules(power_watts: float, duration_s: float) -> float:
    """Energy (J) from constant power over a duration.

    The identity the paper leans on throughout:
    ``energy = power x execution time``.
    """
    return require_non_negative(power_watts, "power_watts") * require_non_negative(
        duration_s, "duration_s"
    )


def watt_hours_to_joules(wh: float) -> float:
    """Watt-hours to joules (battery capacities are quoted in Wh)."""
    return require_non_negative(wh, "wh") * 3600.0


def joules_to_watt_hours(j: float) -> float:
    """Joules to watt-hours."""
    return require_non_negative(j, "j") / 3600.0


def format_duration(t_s: float) -> str:
    """Render a duration the way the paper's tables do (``h:m:s``).

    >>> format_duration(91)
    '0:01:31'
    >>> format_duration(10139)
    '2:48:59'
    """
    total = int(round(require_non_negative(t_s, "t_s")))
    h, rem = divmod(total, 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}"


def format_bytes(n_bytes: int) -> str:
    """Human-readable capacity (``32K``, ``20M``) as in cache-size labels."""
    n = int(require_non_negative(n_bytes, "n_bytes"))
    if n >= GIB and n % GIB == 0:
        return f"{n // GIB}G"
    if n >= MIB and n % MIB == 0:
        return f"{n // MIB}M"
    if n >= KIB and n % KIB == 0:
        return f"{n // KIB}K"
    return f"{n}B"
