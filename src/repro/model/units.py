"""Unit conventions and conversion helpers for the DEEP model.

The paper (Sec. III) mixes units freely: image sizes in **GB**, dataflow
sizes in **MB**, processing loads in **MI** (millions of instructions),
device speeds in **MI/s**, bandwidths implicitly in bits per second, and
energy in **J**.  This module pins down one convention for the whole
library so that no other module ever multiplies by a magic constant:

========================  =======================================
quantity                  unit
========================  =======================================
image size                gigabytes (GB, decimal: 1 GB = 1000 MB)
dataflow size             megabytes (MB)
processing load           millions of instructions (MI)
device speed              MI per second (MI/s)
bandwidth                 megabits per second (Mbit/s)
time                      seconds (s)
power                     watts (W)
energy                    joules (J)
========================  =======================================

All converters are plain functions (no unit objects) so hot loops in the
simulator stay allocation-free, following the HPC guideline of keeping
the inner kernels simple and vectorisable.
"""

from __future__ import annotations

import math
import numbers

#: Megabytes per gigabyte (decimal convention, as used by Docker image
#: sizes and the paper's Table II).
MB_PER_GB: float = 1000.0

#: Bits per byte.
BITS_PER_BYTE: float = 8.0

#: Megabits per megabyte.
MBIT_PER_MB: float = 8.0

#: Megabits per gigabyte.
MBIT_PER_GB: float = MB_PER_GB * MBIT_PER_MB

#: Joules per kilojoule (Figure 3 of the paper reports kJ).
J_PER_KJ: float = 1000.0

#: Bytes per megabyte (decimal).
BYTES_PER_MB: int = 1_000_000

#: Bytes per gigabyte (decimal).
BYTES_PER_GB: int = 1_000_000_000


def gb_to_bytes(size_gb: float) -> int:
    """Convert gigabytes to whole bytes (rounded to nearest byte)."""
    return int(round(size_gb * BYTES_PER_GB))


def bytes_to_mb(size_bytes: int) -> float:
    """Convert bytes to megabytes."""
    return size_bytes / BYTES_PER_MB


def transfer_time_s(size_mb: float, bandwidth_mbps: float) -> float:
    """Time to push ``size_mb`` megabytes through ``bandwidth_mbps``.

    This is the paper's ``Size / BW`` term.  A zero-sized transfer takes
    zero time regardless of bandwidth; transferring anything over a zero
    or negative bandwidth is undefined and raises.

    Parameters
    ----------
    size_mb:
        Payload size in megabytes.  Must be non-negative.
    bandwidth_mbps:
        Channel bandwidth in megabits per second.  Must be positive
        unless the payload is zero.

    Returns
    -------
    float
        Transfer time in seconds.
    """
    if size_mb < 0:
        raise ValueError(f"negative transfer size: {size_mb} MB")
    if size_mb == 0:
        return 0.0
    if bandwidth_mbps <= 0:
        raise ValueError(
            f"cannot transfer {size_mb} MB over bandwidth {bandwidth_mbps} Mbit/s"
        )
    return size_mb * MBIT_PER_MB / bandwidth_mbps


def processing_time_s(load_mi: float, speed_mips: float) -> float:
    """The paper's ``CPU(m_i) / CPU_j`` term.

    Parameters
    ----------
    load_mi:
        Processing load in millions of instructions.  Non-negative.
    speed_mips:
        Device speed in MI/s.  Must be positive unless load is zero.
    """
    if load_mi < 0:
        raise ValueError(f"negative processing load: {load_mi} MI")
    if load_mi == 0:
        return 0.0
    if speed_mips <= 0:
        raise ValueError(f"cannot process {load_mi} MI at {speed_mips} MI/s")
    return load_mi / speed_mips


def j_to_kj(energy_joules: float) -> float:
    """Convert joules to kilojoules (Figure 3 axis units)."""
    return energy_joules / J_PER_KJ


def require_number(value: object, name: str) -> float:
    """Validate that ``value`` is a real number and not a ``bool``:
    ``true`` or ``"abc"`` for a quantity is a typo, not a quantity."""
    # A plain float or int passes on its exact type: scenario builds
    # validate thousands of link capacities, and an isinstance check
    # against the numbers.Real ABC costs several times as much.
    if type(value) not in (float, int) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite, strictly positive number."""
    require_number(value, name)
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def require_int(value: object, name: str, minimum: int) -> int:
    """Validate that ``value`` is an ``int`` (not a ``bool``) of at least
    ``minimum``: ``2.5`` or ``True`` for a count is a typo, not a count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def require_bool(value: object, name: str) -> bool:
    """Validate that ``value`` is a ``bool`` (``1`` and ``"no"`` are not)."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is a finite, non-negative number."""
    require_number(value, name)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)
