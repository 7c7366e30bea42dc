"""Partition combinatorics: enumeration, shifts, conjugates, irrep dimensions."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import factorial


@dataclass(frozen=True, eq=False)
class Partition:
    """Weakly decreasing nonnegative integer parts; trailing zeros are inert.

    Two partitions compare equal iff their nonzero prefixes agree, so the
    same shape may be carried with any declared number of parts.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(operator.index(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def trimmed(self) -> tuple[int, ...]:
        k = len(self.parts)
        while k > 0 and self.parts[k - 1] == 0:
            k -= 1
        return self.parts[:k]

    def padded(self, length: int) -> tuple[int, ...]:
        core = self.trimmed
        if length < len(core):
            raise ValueError(f"{core} does not fit in {length} parts")
        return core + (0,) * (length - len(core))

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.trimmed == other.trimmed
        return NotImplemented

    def __hash__(self):
        return hash(self.trimmed)

    def __repr__(self):
        return f"Partition{self.parts}"

    def as_list(self) -> list[int]:
        return list(self.trimmed)


def enumerate_partitions(n: int, max_parts: int) -> list[Partition]:
    """All partitions of n with at most max_parts nonzero parts, reverse-lex."""
    if n < 1 or max_parts < 1:
        raise ValueError("n and max_parts must be positive")

    def gen(remaining, cap, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0 or cap * slots < remaining:
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first, slots - 1):
                yield (first,) + rest

    return [Partition(p) for p in gen(n, n, max_parts)]


def shifted(lam: Partition) -> tuple[int, ...]:
    """The strictly decreasing shift lambda_i + n - i on n rows."""
    n = lam.n
    parts = lam.padded(n)
    return tuple(parts[i] + n - 1 - i for i in range(n))


def conjugate(lam: Partition) -> Partition:
    core = lam.trimmed
    if not core:
        return Partition(())
    return Partition(tuple(sum(1 for p in core if p > j) for j in range(core[0])))


def irrep_dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of this shape (hook lengths, exact)."""
    core = lam.trimmed
    if not core:
        return 1
    conj = conjugate(lam).trimmed
    num = factorial(lam.n)
    for i, row in enumerate(core):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            num, rem = divmod(num, hook)
            if rem:
                raise ArithmeticError("hook product does not divide n!")
    return num
