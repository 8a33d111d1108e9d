"""Square-free monomials as support masks, and validated quotient instances.

A square-free monomial in x_1..x_n is identified with its support, a subset
of {1, ..., n} stored as a bitmask (bit j-1 set iff x_j divides the
monomial).  Degree is the popcount and divisibility is subset containment,
so both are O(1).  There is no exponent data anywhere in this package.

Canonical order is (degree, support tuple), given on masks by
:func:`canonical_key`; it fixes generator lists, layer enumerations, matrix
layouts and partition witnesses bit-for-bit.  A :class:`QuotientInstance`
holds its minimal generators as masks in that order.  :class:`Monomial`
pairs a mask with its ambient n; it is the type of data entering
(:meth:`Monomial.from_support`) and leaving (witness intervals, strand
labels, error messages).  :func:`check_variable_count` is the one rule for
the ambient n, which every entry point that takes one calls.

Ideal membership is decided here alone: :func:`minimalize` reduces
generator masks, :func:`validate_pair` is the one entry point that turns
them into an instance, and :func:`ideal_supports` is the one walk over the
supports of a degree that lie in one ideal and outside another.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

from .errors import InputError

# Every computation walks the 2^n supports of the ambient ring.
MAX_VARIABLES = 20


def check_variable_count(n: int, location: str | None = None) -> None:
    """Reject an ambient variable count that is not an int in 1..MAX_VARIABLES (bools included)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError("n must be a positive integer", location=location)
    if n > MAX_VARIABLES:
        raise InputError(f"n = {n} exceeds the supported limit of {MAX_VARIABLES}", location=location)


def support_of(mask: int) -> tuple[int, ...]:
    """The 1-based indices of the set bits of a support mask, ascending."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def canonical_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """The canonical order on support masks: degree, then support tuple."""
    return (mask.bit_count(), support_of(mask))


@dataclass(frozen=True)
class Monomial:
    """A square-free monomial over the fixed ambient variable set {1..n}.

    The empty support is the monomial 1.
    """

    n: int
    mask: int

    def __post_init__(self):
        check_variable_count(self.n)
        if isinstance(self.mask, bool) or not isinstance(self.mask, int) or not 0 <= self.mask < 1 << self.n:
            raise InputError(f"mask {self.mask!r} is not a support mask below 2^{self.n}")

    @classmethod
    def from_support(cls, n: int, indices: Iterable[int]) -> Monomial:
        """Build a monomial from 1-based variable indices (duplicates rejected)."""
        check_variable_count(n)
        if not isinstance(indices, Iterable):
            raise InputError(f"expected an iterable of variable indices, got {indices!r}")
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
        return support_of(self.mask)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        if not self.mask:
            return "1"
        return "*".join(f"x{j}" for j in self.support)


def minimalize(masks: Iterable[int]) -> tuple[int, ...]:
    """Reduce a list of support masks to its divisibility-minimal, deduplicated core.

    The result spans the same monomials as the input, in canonical order; an
    empty list yields the zero ideal's empty tuple.  Each mask is tested only
    against the kept masks of lower degree: the list is deduplicated and in
    canonical order (degree first), so no kept mask has a higher degree, and
    a distinct mask of the same degree is never a subset.
    """
    kept: list[int] = []
    for _, same_degree in itertools.groupby(sorted(set(masks), key=canonical_key), key=int.bit_count):
        lower = tuple(kept)
        kept += [g for g in same_degree if not any(h & ~g == 0 for h in lower)]
    return tuple(kept)


@dataclass(frozen=True)
class QuotientInstance:
    """A validated pair J < I of square-free monomial ideals.

    ``gens_i`` and ``gens_j`` are the minimal generators of I and J as
    support masks in canonical order.  ``d`` is the minimal degree of a
    square-free monomial lying in I but not in J.  ``hypothesis_flag``
    records whether every minimal generator of J has degree at least d+1
    (the standing degree condition all bound certificates assume for their
    lower-bound half).
    """

    n: int
    gens_i: tuple[int, ...]
    gens_j: tuple[int, ...]
    d: int
    hypothesis_flag: bool


def validate_pair(n: int, gens_i: Iterable[int], gens_j: Iterable[int]) -> QuotientInstance:
    """Minimalize two lists of generator support masks and build a validated quotient instance.

    Rejects: n outside the :func:`check_variable_count` rule, generators that are not an
    iterable, a generator that is not an int mask below 2^n (bools included), J not
    contained in I (naming the offending generator), J equal to I (empty quotient), and
    instances where the constant monomial lies in the quotient (d would be 0).
    """
    check_variable_count(n)
    for name, gens in (("I", gens_i), ("J", gens_j)):
        if not isinstance(gens, Iterable):
            raise InputError(f"expected an iterable of generator masks for {name}, got {gens!r}")
    gens_i, gens_j = list(gens_i), list(gens_j)
    for g in gens_i + gens_j:
        if isinstance(g, bool) or not isinstance(g, int) or not 0 <= g < 1 << n:
            raise InputError(f"generator {g!r} is not a support mask below 2^{n}")
    gens_i = minimalize(gens_i)
    gens_j = minimalize(gens_j)
    for g in gens_j:
        if not any(h & ~g == 0 for h in gens_i):
            raise InputError(f"generator {Monomial(n, g)} of J does not lie in I")
    outside = [g for g in gens_i if not any(h & ~g == 0 for h in gens_j)]
    if not outside:
        raise InputError("no square-free monomial lies in I but not in J (J = I or I = 0)")
    d = min(g.bit_count() for g in outside)
    if d < 1:
        raise InputError("the constant monomial lies in I \\ J; the quotient is not a proper module")
    flag = all(g.bit_count() >= d + 1 for g in gens_j)
    return QuotientInstance(n=n, gens_i=gens_i, gens_j=gens_j, d=d, hypothesis_flag=flag)


def ideal_supports(n: int, t: int, gens_i: Sequence[int], gens_j: Sequence[int]) -> Iterator[int]:
    """The degree-t support masks in the ideal of ``gens_i`` and outside that of ``gens_j``.

    Walks all t-subsets of {1..n} in lexicographic order as bitmasks, which is
    canonical order within a degree, and keeps those that some generator of
    ``gens_i`` divides (g & ~mask == 0) and no generator of ``gens_j`` does; at
    desk scale this is at most 2^n subsets and needs no duplicate handling.

    A support is tested only against the generators of degree at most t, in
    both lists.  This is sound: g divides the support mask m only if g is a
    subset of m, and then deg g <= deg m = t, so a generator of higher degree
    can never divide any support of this degree.  Each list is filtered once
    per call and keeps its order, so ``any`` visits the same divisors in the
    same order and the output is unchanged.
    """
    gens_i = [g for g in gens_i if g.bit_count() <= t]
    gens_j = [g for g in gens_j if g.bit_count() <= t]
    bits = [1 << j for j in range(n)]
    for combo in itertools.combinations(bits, t):
        mask = sum(combo)
        if any(g & ~mask == 0 for g in gens_i) and not any(g & ~mask == 0 for g in gens_j):
            yield mask
