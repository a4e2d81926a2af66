"""Exact arithmetic in the cyclic group Z_N plus symmetric integer representatives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = [
    "GroupElement",
    "to_residue",
    "symmetric_set",
]


@dataclass(frozen=True)
class GroupElement:
    """A residue modulo a fixed positive modulus.

    Arithmetic between elements of different moduli is a hard error, never a
    silent coercion.
    """

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if not isinstance(self.modulus, int) or self.modulus <= 0:
            raise ValueError(f"modulus must be a positive integer, got {self.modulus!r}")
        if not isinstance(self.value, int):
            raise ValueError(f"value must be an integer, got {self.value!r}")
        if not 0 <= self.value < self.modulus:
            object.__setattr__(self, "value", self.value % self.modulus)

    def _require_same_modulus(self, other: "GroupElement") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._require_same_modulus(other)
        return GroupElement((self.value + other.value) % self.modulus, self.modulus)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._require_same_modulus(other)
        return GroupElement((self.value - other.value) % self.modulus, self.modulus)

    def __neg__(self) -> "GroupElement":
        return GroupElement((-self.value) % self.modulus, self.modulus)

    def scale(self, k: int) -> "GroupElement":
        """Integer multiple k * self."""
        return GroupElement((self.value * k) % self.modulus, self.modulus)

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


def to_residue(x: int, modulus: int) -> int:
    """The residue of an integer, such as a symmetric representative, in 0..modulus-1."""
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    return x % modulus


def symmetric_set(n: int) -> List[int]:
    """The set {-n/2, ..., -1, 1, ..., n/2} for even n, sorted ascending."""
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"symmetric_set needs a positive even size, got {n}")
    half = n // 2
    return list(range(-half, 0)) + list(range(1, half + 1))

