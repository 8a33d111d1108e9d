"""Randomized conjecture scans: Stanley depth against exact depth in bulk."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .certificates import ALTERNATING_DROP, SDEPTH_POSET_CAP, analyze
from .errors import InputError, InternalConsistencyError, require_nonnegative_int
from .generate import default_params, random_instance
from .linalg import GF2, RATIONALS
from .monomials import QuotientInstance


@dataclass
class ScanRecord:
    index: int
    instance: QuotientInstance
    depth: dict[str, int]
    sdepth: int | None
    min_fired_drop: int | None


@dataclass
class ScanReport:
    """Outcome of one seeded scan.

    ``stanley_violations`` lists record indices where the Stanley depth fell
    below the exact depth in some field (a first-class finding, never an
    assertion), ``bound_gap_findings`` those where it fell below the best
    fired alternating-drop bound, ``skipped_sdepth`` those whose Stanley
    depth was not computed.
    """

    n: int
    count: int
    seed: int
    records: list[ScanRecord]
    stanley_violations: list[int]
    bound_gap_findings: list[int]
    skipped_sdepth: list[int]


def conjecture_scan(
    n: int,
    count: int,
    seed: int,
    sdepth_poset_cap: int | None = SDEPTH_POSET_CAP,
) -> ScanReport:
    """Generate ``count`` instances in ``n`` variables, run :func:`analyze` on
    each over Q and GF(2), and compare Stanley depth with depth and the drop
    bounds.

    Fully reproducible from the seed.  Each record is read off its analysis
    report, so every fired certificate is cross-checked against the exact
    depths; an inconsistent report raises :class:`InternalConsistencyError`
    naming the record.  Instances whose poset exceeds ``sdepth_poset_cap``
    (``None`` for no cap) skip the Stanley computation and are listed in
    ``skipped_sdepth``.  Before any draw, an ``n`` outside the ``monomials``
    rule, a non-int ``seed``, or a ``count`` or cap (other than ``None``) that
    is not an int of at least 0 raise :class:`InputError`.
    """
    default_params(n)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InputError(f"seed must be an int, got {seed!r}")
    require_nonnegative_int("count", count)
    if sdepth_poset_cap is not None:
        require_nonnegative_int("sdepth_poset_cap", sdepth_poset_cap)
    rng = random.Random(seed)
    records: list[ScanRecord] = []
    for index in range(count):
        inst = random_instance(n, rng)
        report = analyze(inst, (RATIONALS, GF2), sdepth_poset_cap)
        if not report.consistent:
            raise InternalConsistencyError(f"scan record {index}: " + "; ".join(report.inconsistencies))
        fired_ts = [c.t for c in report.certificates if c.kind == ALTERNATING_DROP and c.fired]
        records.append(
            ScanRecord(
                index=index,
                instance=inst,
                depth=report.depth,
                sdepth=report.sdepth,
                min_fired_drop=min(fired_ts, default=None),
            )
        )
    computed = [r for r in records if r.sdepth is not None]
    return ScanReport(
        n=n,
        count=count,
        seed=seed,
        records=records,
        stanley_violations=[r.index for r in computed if r.sdepth < max(r.depth.values())],
        bound_gap_findings=[
            r.index for r in computed if r.min_fired_drop is not None and r.sdepth < r.min_fired_drop
        ],
        skipped_sdepth=[r.index for r in records if r.sdepth is None],
    )
