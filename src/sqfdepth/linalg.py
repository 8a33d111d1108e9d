"""Exact rank computation for small dense integer matrices.

Ranks over the rationals are computed by fraction-free (integer-preserving)
elimination; the test suite cross-validates it against an independent route
on exact Fractions.  Ranks over prime fields use modular elimination, with a
bitset fast path for GF(2).

The matrices of interest have entries in {-1, 0, +1}, but fraction-free
intermediate values are minors of the input and can grow, so everything
stays in arbitrary-precision Python ints.  Dense storage throughout: strand
matrices at desk scale are at most a few hundred wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError

# Primality is checked by trial division up to sqrt(p): at most ~23k steps below this limit.
_PRIME_LIMIT = 1 << 31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: the rationals (p is None) or GF(p) for a prime p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is None:
            return
        if self.p >= _PRIME_LIMIT:
            raise InputError(f"field size {self.p} is not below the limit 2^31 = {_PRIME_LIMIT}")
        if not _is_prime(self.p):
            raise InputError(f"{self.p} is not prime")

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    @property
    def label(self) -> str:
        return "q" if self.p is None else f"gf:{self.p}"

    @classmethod
    def parse(cls, text: str) -> FieldSpec:
        """Parse a field label: "q" or "gf:<p>"."""
        if text == "q":
            return cls()
        if text.startswith("gf:"):
            try:
                p = int(text[3:])
            except ValueError:
                raise InputError(f"bad prime in field spec {text!r}") from None
            return cls(p)
        raise InputError(f"unknown field spec {text!r}; expected 'q' or 'gf:<p>'")


RATIONALS = FieldSpec()
GF2 = FieldSpec(2)


def rank_bareiss(entries: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by fraction-free elimination.

    Working entries are minors of the input (up to sign), so every division
    by the previous pivot is exact; intermediate growth is why the arithmetic
    is on unbounded ints.
    """
    m = [list(r) for r in entries]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    for col in range(nc):
        piv = None
        for r in range(rank, nr):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pval = m[rank][col]
        mp = m[rank]
        for r in range(rank + 1, nr):
            f = m[r][col]
            mr = m[r]
            for c in range(col + 1, nc):
                mr[c] = (pval * mr[c] - f * mp[c]) // prev
            mr[col] = 0
        prev = pval
        rank += 1
        if rank == nr:
            break
    return rank


def rank_gf2(entries: Sequence[Sequence[int]]) -> int:
    """Rank over GF(2); rows are packed into ints and reduced by XOR."""
    basis: dict[int, int] = {}
    for r in entries:
        v = 0
        for j, e in enumerate(r):
            if e & 1:
                v |= 1 << j
        while v:
            low = v & -v
            if low in basis:
                v ^= basis[low]
            else:
                basis[low] = v
                break
    return len(basis)


def rank_mod_p(entries: Sequence[Sequence[int]], p: int) -> int:
    """Rank over GF(p) by modular Gaussian elimination."""
    m = [[e % p for e in r] for r in entries]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    for col in range(nc):
        piv = None
        for r in range(rank, nr):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        mp = m[rank]
        inv = pow(mp[col], p - 2, p)
        for r in range(rank + 1, nr):
            f = m[r][col]
            if f:
                mult = f * inv % p
                mr = m[r]
                for c in range(col, nc):
                    mr[c] = (mr[c] - mult * mp[c]) % p
        rank += 1
        if rank == nr:
            break
    return rank
