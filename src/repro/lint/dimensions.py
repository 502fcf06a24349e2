"""The dimension lattice behind the U-rules.

The paper's headline numbers are all unit arithmetic — join delay in
seconds, stall durations, ``wire_bytes * 8.0 / rate_bps`` — and the
repo's bug history (TARGETDURATION rounding, the >1.0 utilization
integral) shows this is where defects live.  This module gives the
dataflow engine a small abstract domain of physical dimensions plus the
algebra that propagates them through arithmetic.

**Dimensions** (flat lattice: any two distinct dimensions join to
``None`` = unknown/top):

* ``seconds`` — durations (``_s``, ``_seconds``, ``delay_*``, ...);
* ``timestamp`` — absolute sim-time points (``now``, ``*_at``,
  ``deadline``).  Timestamps are seconds-valued, so assigning one to a
  ``_s`` name is fine; *adding or multiplying two of them* is not;
* ``bytes`` / ``bits`` — payload sizes (``_bytes``/``nbytes``, ``_bits``);
* ``bps`` — rates in bits per second (``_bps``, ``rate_bps``);
* ``scaled_rate`` — rates in scaled units (``_mbps``/``_kbps``); a
  *count of megabits*, so it multiplies like a scalar but may not be
  added to plain ``bps``;
* ``bytes_per_second`` — the tell-tale of a missing ``* 8.0``: dividing
  bytes by seconds is only ever an intermediate, and storing it in a
  ``_bps`` name is rule U504;
* ``ratio`` — dimensionless fractions (``_ratio``, ``utilization``);
* ``scalar`` — numeric literals and counts; compatible with anything
  (a bare ``3.0`` added to ``timeout_s`` is presumed to be seconds).

Inference is by naming convention first (the repo's suffix discipline,
encoded in :func:`dimension_of_name`) with an explicit overrides table
(:data:`NAME_OVERRIDES`) for names whose convention lies — the
``repro.util.units`` constants most prominently: ``MBPS`` *is a value
in bps*, which is exactly what makes ``limit_mbps * MBPS`` work out.

The algebra is deliberately conservative: an operation is an error only
when **both** operands have known, provably incompatible dimensions;
everything unmodeled evaluates to unknown and stays silent.
"""

from __future__ import annotations

from typing import Optional, Tuple

SECONDS = "seconds"
TIMESTAMP = "timestamp"
BYTES = "bytes"
BITS = "bits"
BPS = "bps"
SCALED_RATE = "scaled_rate"
BYTES_PER_S = "bytes_per_second"
RATIO = "ratio"
SCALAR = "scalar"

#: Explicit name -> dimension overrides, consulted before the suffix
#: rules.  Keyed on the bare identifier (the leaf for attributes), so
#: ``units.MBPS`` and a from-imported ``MBPS`` resolve identically.
NAME_OVERRIDES = {
    # Every repro.util.units constant: each *is a value* in its base unit.
    "BPS": BPS, "KBPS": BPS, "MBPS": BPS, "GBPS": BPS,
    "BYTE": BYTES,
    "MS": SECONDS, "US": SECONDS, "MINUTE": SECONDS, "HOUR": SECONDS,
    "DAY": SECONDS,
    # Ubiquitous sim-time identifiers without a suffix.
    "now": TIMESTAMP,
    "deadline": TIMESTAMP,
    # Common duration words used without a suffix.
    "duration": SECONDS,
    "elapsed": SECONDS,
    "timeout": SECONDS,
    "delay": SECONDS,
    # Byte counts with conventional short names.
    "nbytes": BYTES,
    # Dimensionless by convention.
    "utilization": RATIO,
    "fraction": RATIO,
    "ratio": RATIO,
}

#: (suffix, dimension), most specific first — ``_mbps`` must win over
#: ``_bps``, and both over the bare ``_s`` rule.
_SUFFIXES = (
    ("_mbps", SCALED_RATE),
    ("_kbps", SCALED_RATE),
    ("_bps", BPS),
    ("_bytes", BYTES),
    ("_bits", BITS),
    ("_seconds", SECONDS),
    ("_secs", SECONDS),
    ("_sec", SECONDS),
    ("_ratio", RATIO),
    ("_duration", SECONDS),
    ("_delay", SECONDS),
    ("_at", TIMESTAMP),
    ("_deadline", TIMESTAMP),
    ("_until", TIMESTAMP),
    ("_s", SECONDS),
)

_PREFIXES = (
    ("delay_", SECONDS),
)


def dimension_of_name(name: str) -> Optional[str]:
    """Dimension a bare identifier declares, or None."""
    override = NAME_OVERRIDES.get(name)
    if override is not None:
        return override
    lowered = name.lower()
    for suffix, dimension in _SUFFIXES:
        if lowered.endswith(suffix):
            return dimension
    for prefix, dimension in _PREFIXES:
        if lowered.startswith(prefix):
            return dimension
    return None


def join(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Flat-lattice join: equal stays, different widens to unknown.

    ``timestamp`` and ``seconds`` join to ``seconds`` (a timestamp is a
    seconds-valued float; only *point* semantics are lost)."""
    if a == b:
        return a
    if {a, b} == {TIMESTAMP, SECONDS}:
        return SECONDS
    if a == SCALAR:
        return b
    if b == SCALAR:
        return a
    return None


def compatible(declared: str, actual: str) -> bool:
    """May a value of dimension ``actual`` live in a name declaring
    ``declared``?  (Used by the assignment/return checks U503/U505.)"""
    if declared == actual:
        return True
    if actual == SCALAR:
        return True  # bare literals carry the declared unit
    # Absolute times are seconds-valued: start_s = loop.now is idiomatic.
    if {declared, actual} == {TIMESTAMP, SECONDS}:
        return True
    return False


def _is_eight(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and float(value) == 8.0


def combine(
    op: str, left: Optional[str], right: Optional[str],
    right_literal: object = None, left_literal: object = None,
) -> Tuple[Optional[str], Optional[str]]:
    """Result dimension of ``left <op> right`` plus an error code.

    ``op`` is one of ``"add" | "sub" | "mult" | "div" | "mod"``.
    ``*_literal`` carry the Python value when an operand is a numeric
    constant — needed for the ``* 8`` / ``/ 8`` byte<->bit idiom.
    Returns ``(dimension_or_None, error_or_None)`` with errors drawn
    from ``{"mix", "timestamp", "bytes_per_bps"}``.
    """
    if op == "add":
        if left == TIMESTAMP and right == TIMESTAMP:
            return None, "timestamp"
        if left is None or right is None:
            return None, None
        if left == SCALAR:
            return right, None
        if right == SCALAR:
            return left, None
        if left == right:
            return left, None
        if {left, right} == {TIMESTAMP, SECONDS}:
            return TIMESTAMP, None
        return None, "mix"

    if op == "sub":
        if left is None or right is None:
            return None, None
        if left == SCALAR:
            return right, None
        if right == SCALAR:
            return left, None
        if left == TIMESTAMP and right == TIMESTAMP:
            return SECONDS, None
        if left == TIMESTAMP and right == SECONDS:
            return TIMESTAMP, None
        if left == right:
            return left, None
        return None, "mix"

    if op == "mult":
        if left == TIMESTAMP and right == TIMESTAMP:
            return None, "timestamp"
        if left is None or right is None:
            return None, None
        # bytes * 8 -> bits (the conversion idiom).
        if left == BYTES and _is_eight(right_literal):
            return BITS, None
        if right == BYTES and _is_eight(left_literal):
            return BITS, None
        if left == SCALAR:
            return right if right != SCALAR else SCALAR, None
        if right == SCALAR:
            return left, None
        if RATIO in (left, right):
            return right if left == RATIO else left, None
        if SCALED_RATE in (left, right):
            # A count of megabits/s times a bps-valued constant is bps;
            # against anything else it behaves like a scalar count.
            return right if left == SCALED_RATE else left, None
        if {left, right} == {SECONDS, BPS} or {left, right} == {TIMESTAMP, BPS}:
            return BITS, None
        if {left, right} == {SECONDS, BYTES_PER_S}:
            return BYTES, None
        return None, None

    if op in ("div", "mod"):
        if left is None or right is None:
            return None, None
        if op == "mod":
            if right == SCALAR or left == right:
                return left, None
            return None, None
        # bits / 8 -> bytes (the reverse conversion idiom).
        if left == BITS and _is_eight(right_literal):
            return BYTES, None
        if right == SCALAR:
            return left, None
        if left == right:
            return RATIO, None
        if left == BITS and right == BPS:
            return SECONDS, None
        if left == BITS and right == SECONDS:
            return BPS, None
        if left == BYTES and right == SECONDS:
            return BYTES_PER_S, None
        if left == BYTES and right == BPS:
            # The classic missing "* 8.0": report, then assume the
            # author *meant* seconds so downstream checks still work.
            return SECONDS, "bytes_per_bps"
        if left == TIMESTAMP and right == SECONDS:
            return None, None
        if left == RATIO:
            return None, None
        if right == RATIO:
            return left, None
        return None, None

    return None, None
