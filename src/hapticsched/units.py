"""Integer-nanosecond time lattice.

All timing parameters are snapped to whole nanoseconds before any
floor/ceil or coincidence test, so slot, grant and arrival alignment is
exact instead of depending on binary float rounding.  Nine decimal places
in serialized times round-trip the lattice exactly.
"""

NS_PER_S = 10**9


def to_ns(seconds: float) -> int:
    return round(seconds * NS_PER_S)


def positive_ns(seconds: float) -> bool:
    """Whether seconds snaps to at least 1 ns.  to_ns rounds half to even,
    so 0.5 ns snaps to 0; nan is never positive."""
    return seconds * NS_PER_S > 0.5


def to_s(ns: int) -> float:
    return ns / NS_PER_S


def ceil_div(num: int, den: int) -> int:
    return -(-num // den)
