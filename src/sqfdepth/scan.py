"""Randomized conjecture scans: Stanley depth against exact depth in bulk."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .certificates import check_alternating_drop
from .generate import GeneratorParams, random_instance
from .instancefile import instance_to_json
from .linalg import GF2, RATIONALS
from .poset import enumerate_quotient
from .stanley import stanley_depth
from .strands import exact_depth_multi


@dataclass
class ScanRecord:
    index: int
    instance_data: dict
    d: int
    depth: dict[str, int]
    sdepth: int | None
    min_fired_drop: int | None

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "instance": self.instance_data,
            "d": self.d,
            "depth": self.depth,
            "sdepth": self.sdepth,
            "min_fired_drop": self.min_fired_drop,
        }


@dataclass
class ScanReport:
    """Outcome of one seeded scan.

    ``stanley_violations`` lists record indices where the Stanley depth fell
    below the exact depth in some field (a first-class finding, never an
    assertion), ``bound_gap_findings`` those where it fell below the best
    fired alternating-drop bound.
    """

    n: int
    count: int
    seed: int
    records: list[ScanRecord]
    stanley_violations: list[int]
    bound_gap_findings: list[int]
    skipped_sdepth: list[int]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "count": self.count,
            "seed": self.seed,
            "records": [r.to_json_dict() for r in self.records],
            "stanley_violations": self.stanley_violations,
            "bound_gap_findings": self.bound_gap_findings,
            "skipped_sdepth": self.skipped_sdepth,
        }


def conjecture_scan(
    params: GeneratorParams,
    count: int,
    seed: int,
    max_sdepth_poset: int | None = None,
) -> ScanReport:
    """Generate ``count`` instances and compare sdepth, depth, and drop bounds.

    Fully reproducible from the seed.  Instances whose poset exceeds
    ``max_sdepth_poset`` (when set) skip the Stanley computation and are
    listed in ``skipped_sdepth``.
    """
    rng = random.Random(seed)
    records: list[ScanRecord] = []
    stanley_violations: list[int] = []
    bound_gap_findings: list[int] = []
    skipped: list[int] = []
    for index in range(count):
        inst = random_instance(params, rng)
        poset = enumerate_quotient(inst)
        depths = exact_depth_multi(poset, (RATIONALS, GF2))
        depth_map = {f.label: v for f, v in depths.items()}
        fired_ts = [c.t for c in check_alternating_drop(poset) if c.fired]
        min_fired = min(fired_ts) if fired_ts else None
        sdepth_value: int | None = None
        if max_sdepth_poset is None or len(poset.elements()) <= max_sdepth_poset:
            sdepth_value, _ = stanley_depth(poset)
            if sdepth_value < max(depth_map.values()):
                stanley_violations.append(index)
            if min_fired is not None and sdepth_value < min_fired:
                bound_gap_findings.append(index)
        else:
            skipped.append(index)
        records.append(
            ScanRecord(
                index=index,
                instance_data=instance_to_json(inst),
                d=inst.d,
                depth=depth_map,
                sdepth=sdepth_value,
                min_fired_drop=min_fired,
            )
        )
    return ScanReport(
        n=params.n,
        count=count,
        seed=seed,
        records=records,
        stanley_violations=stanley_violations,
        bound_gap_findings=bound_gap_findings,
        skipped_sdepth=skipped,
    )
