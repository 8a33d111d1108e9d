"""Square-free monomials, monomial ideals, and validated quotient instances.

A square-free monomial in x_1..x_n is identified with its support, a subset
of {1, ..., n} stored as a bitmask (bit j-1 set iff x_j divides the
monomial).  Degree is the popcount and divisibility is subset containment,
so both are O(1).  There is no exponent data anywhere in this package.

Canonical order is (degree, support tuple); it fixes generator lists, layer
enumerations, matrix layouts and partition witnesses bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, ValidationError


@dataclass(frozen=True)
class Monomial:
    """A square-free monomial over the fixed ambient variable set {1..n}.

    The empty support is the monomial 1.
    """

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 0:
            raise InputError(f"ambient variable count must be nonnegative, got {self.n}")
        if self.mask < 0 or self.mask >> self.n:
            raise InputError(f"support exceeds the ambient range 1..{self.n}")

    @classmethod
    def from_support(cls, n: int, indices: Iterable[int]) -> Monomial:
        """Build a monomial from 1-based variable indices (duplicates rejected)."""
        mask = 0
        for j in indices:
            if not isinstance(j, int) or isinstance(j, bool) or not 1 <= j <= n:
                raise InputError(f"variable index {j!r} out of range 1..{n}")
            bit = 1 << (j - 1)
            if mask & bit:
                raise InputError(f"duplicate variable index {j}")
            mask |= bit
        return cls(n, mask)

    @property
    def support(self) -> tuple[int, ...]:
        """The 1-based indices of the variables dividing this monomial."""
        return tuple(j + 1 for j in range(self.n) if self.mask >> j & 1)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def divides(self, other: Monomial) -> bool:
        if self.n != other.n:
            raise InputError(f"ambient mismatch: n={self.n} vs n={other.n}")
        return self.mask & ~other.mask == 0

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.degree, self.support)

    def __str__(self) -> str:
        if not self.mask:
            return "1"
        return "*".join(f"x{j}" for j in self.support)


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff support(a) is contained in support(b); a partial order."""
    return a.divides(b)


@dataclass(frozen=True)
class MonomialIdeal:
    """A square-free monomial ideal given by its minimal generators.

    Generators are pairwise incomparable under divisibility and canonically
    sorted.  Construct through :func:`minimalize`, which establishes both
    invariants; the constructor itself checks nothing.
    """

    n: int
    generators: tuple[Monomial, ...]

    @property
    def is_zero(self) -> bool:
        return not self.generators


def minimalize(n: int, gens: Iterable[Monomial]) -> MonomialIdeal:
    """Reduce a generator list to its divisibility-minimal, deduplicated core.

    The returned ideal has the same monomial membership as the span of the
    input list.  An empty list yields the zero ideal.
    """
    seen: set[int] = set()
    unique: list[Monomial] = []
    for g in gens:
        if g.n != n:
            raise InputError(f"generator {g} has ambient n={g.n}, expected {n}")
        if g.mask not in seen:
            seen.add(g.mask)
            unique.append(g)
    unique.sort(key=Monomial.sort_key)
    kept: list[Monomial] = []
    for g in unique:
        if not any(h.mask & ~g.mask == 0 for h in kept):
            kept.append(g)
    return MonomialIdeal(n, tuple(kept))


def ideal_contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    """Membership test: some generator divides m.  The zero ideal contains nothing."""
    if ideal.n != m.n:
        raise InputError(f"ambient mismatch: ideal n={ideal.n}, monomial n={m.n}")
    mask = m.mask
    return any(g.mask & ~mask == 0 for g in ideal.generators)


@dataclass(frozen=True)
class QuotientInstance:
    """A validated pair J < I of square-free monomial ideals.

    ``d`` is the minimal degree of a square-free monomial lying in I but not
    in J.  ``hypothesis_flag`` records whether every minimal generator of J
    has degree at least d+1 (the standing degree condition all bound
    certificates assume for their lower-bound half).
    """

    n: int
    ideal_i: MonomialIdeal
    ideal_j: MonomialIdeal
    d: int
    hypothesis_flag: bool


def validate_pair(n: int, gens_i: Iterable[Monomial], gens_j: Iterable[Monomial]) -> QuotientInstance:
    """Minimalize both generator lists and build a validated quotient instance.

    Rejects: J not contained in I (naming the offending generator), J equal
    to I (empty quotient), and instances where the constant monomial lies in
    the quotient (d would be 0).
    """
    if n < 1:
        raise ValidationError(f"need at least one variable, got n={n}")
    ideal_i = minimalize(n, gens_i)
    ideal_j = minimalize(n, gens_j)
    for g in ideal_j.generators:
        if not ideal_contains(ideal_i, g):
            raise ValidationError(f"generator {g} of J does not lie in I")
    outside = [g for g in ideal_i.generators if not ideal_contains(ideal_j, g)]
    if not outside:
        raise ValidationError("no square-free monomial lies in I but not in J (J = I or I = 0)")
    d = min(g.degree for g in outside)
    if d < 1:
        raise ValidationError("the constant monomial lies in I \\ J; the quotient is not a proper module")
    flag = all(g.degree >= d + 1 for g in ideal_j.generators)
    return QuotientInstance(n=n, ideal_i=ideal_i, ideal_j=ideal_j, d=d, hypothesis_flag=flag)
