"""Certified lower/upper bound pairs for distances and metric values."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DistInterval:
    """A pair ``lower <= value <= upper`` certifying an invariant quantity."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")
        if self.lower < 0 and self.lower > -1e-12:
            object.__setattr__(self, "lower", 0.0)

    @classmethod
    def exact(cls, value: float) -> "DistInterval":
        return cls(value, value)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float, slack: float = 1e-10) -> bool:
        return self.lower - slack <= value <= self.upper + slack

    def gap_to(self, value: float) -> float:
        """Distance from ``value`` to the interval (0 when contained)."""
        if value < self.lower:
            return self.lower - value
        if value > self.upper:
            return value - self.upper
        return 0.0
