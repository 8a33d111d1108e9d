"""Checkable depth certificates driven by layer counts and strand ranks.

Each checker evaluates one combinatorial criterion against an instance and
returns a Certificate recording the numbers it consumed, whether the
hypothesis fired, and what the firing concludes about depth.  Certificates
are data, not booleans, so a failing cross-check is diagnosable from the
report alone.

Kinds:

* ``lower_bound``       degree hypothesis on J   =>  depth >= d
* ``base_drop``         rho_d > rho_{d+1}        =>  depth = d
* ``alternating_drop``  rho_{t+1} < alpha_t      =>  depth <= t, and = t once
                        depth >= t is known independently
* ``principal_gap``     I principal, rho_{d+1} > rho_{d+2} + 1  =>  depth = d+1
* ``layer_sandwich``    depth >= d+2  =>  rho_d <= rho_{d+1} <= rho_d + rho_{d+2}
* ``rank_split``        depth > d+i   =>  rho_{d+i} splits as the sum of the
                        ranks of the two adjacent full-strand boundary maps;
                        conversely a surplus forces depth <= d+i
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import TheoremViolationError
from .linalg import GF2, RATIONALS, FieldSpec
from .monomials import QuotientInstance
from .poset import PosetLayers, enumerate_quotient
from .stanley import IntervalPartition, stanley_depth
from .strands import RankCache, build_strand, exact_depth_multi, strand_rank

LOWER_BOUND = "lower_bound"
BASE_DROP = "base_drop"
ALTERNATING_DROP = "alternating_drop"
PRINCIPAL_GAP = "principal_gap"
LAYER_SANDWICH = "layer_sandwich"
RANK_SPLIT = "rank_split"

DEPTH_AT_LEAST = "depth_at_least"
DEPTH_AT_MOST = "depth_at_most"
DEPTH_EQUALS = "depth_equals"
INEQUALITY_HOLDS = "inequality_holds"
RANK_IDENTITY_HOLDS = "rank_identity_holds"


@dataclass(frozen=True)
class Conclusion:
    kind: str
    value: int | None = None
    requires_depth_at_least: int | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.value is not None:
            out["value"] = self.value
        if self.requires_depth_at_least is not None:
            out["requires_depth_at_least"] = self.requires_depth_at_least
        return out


@dataclass
class Certificate:
    kind: str
    fired: bool
    t: int | None = None
    field: FieldSpec | None = None
    numbers: dict[str, int] = dc_field(default_factory=dict)
    conclusions: tuple[Conclusion, ...] = ()
    warning: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "fired": self.fired,
            "t": self.t,
            "field": None if self.field is None else self.field.label,
            "numbers": dict(sorted(self.numbers.items())),
            "conclusions": [c.to_json_dict() for c in self.conclusions],
            "warning": self.warning,
        }


def check_lower_bound(inst: QuotientInstance) -> Certificate:
    """depth >= d whenever every generator of J has degree >= d + 1."""
    if inst.hypothesis_flag:
        return Certificate(
            kind=LOWER_BOUND,
            fired=True,
            numbers={"d": inst.d},
            conclusions=(Conclusion(DEPTH_AT_LEAST, inst.d),),
        )
    return Certificate(
        kind=LOWER_BOUND,
        fired=False,
        numbers={"d": inst.d},
        warning="J has a generator of degree <= d; the lower bound does not apply",
    )


def check_base_drop(poset: PosetLayers) -> Certificate:
    """A drop from the bottom layer to the next pins depth to d.

    rho_d > rho_{d+1} makes the bottom boundary map of the full strand fail
    injectivity by a rank surplus, so depth <= d; with the standing lower
    bound this is equality.
    """
    d = poset.instance.d
    r_d, r_d1 = poset.rho(d), poset.rho(d + 1)
    fired = r_d > r_d1
    conclusions = ()
    if fired:
        conclusions = (Conclusion(DEPTH_AT_MOST, d), Conclusion(DEPTH_EQUALS, d))
    return Certificate(
        kind=BASE_DROP,
        fired=fired,
        t=d,
        numbers={"rho_d": r_d, "rho_d_plus_1": r_d1},
        conclusions=conclusions,
    )


def check_alternating_drop(poset: PosetLayers) -> list[Certificate]:
    """One certificate per degree t in [d, n]: fires when rho_{t+1} < alpha_t.

    A firing always yields depth <= t (either depth < t already, or
    depth >= t and the criterion forces equality); the equality conclusion
    is recorded as conditional on an independent depth >= t.
    """
    n, d = poset.instance.n, poset.instance.d
    alpha = poset.alpha_table()
    out = []
    for t in range(d, n + 1):
        r_next = poset.rho(t + 1)
        a_t = alpha[t]
        fired = r_next < a_t
        conclusions = ()
        if fired:
            conclusions = (
                Conclusion(DEPTH_AT_MOST, t),
                Conclusion(DEPTH_EQUALS, t, requires_depth_at_least=t),
            )
        out.append(
            Certificate(
                kind=ALTERNATING_DROP,
                fired=fired,
                t=t,
                numbers={"rho_t_plus_1": r_next, "alpha_t": a_t},
                conclusions=conclusions,
            )
        )
    return out


def check_principal_gap(poset: PosetLayers) -> Certificate:
    """Principal I with rho_{d+1} exceeding rho_{d+2} + 1 pins depth to d + 1."""
    inst = poset.instance
    d = inst.d
    s, q = poset.rho(d + 1), poset.rho(d + 2)
    principal = len(inst.ideal_i.generators) == 1
    fired = principal and s > q + 1
    conclusions = (Conclusion(DEPTH_EQUALS, d + 1),) if fired else ()
    return Certificate(
        kind=PRINCIPAL_GAP,
        fired=fired,
        t=d + 1,
        numbers={"s": s, "q": q, "generators_of_I": len(inst.ideal_i.generators)},
        conclusions=conclusions,
    )


def check_layer_sandwich(poset: PosetLayers, depth: int) -> Certificate:
    """With depth >= d + 2, the middle layer is sandwiched:
    rho_d <= rho_{d+1} <= rho_d + rho_{d+2}, and rho_{d+2} = 0 forces equality
    on the left.  A violation while fired flags an implementation bug.
    """
    d = poset.instance.d
    r_d, r_d1, r_d2 = poset.rho(d), poset.rho(d + 1), poset.rho(d + 2)
    fired = depth >= d + 2
    numbers = {"depth": depth, "rho_d": r_d, "rho_d_plus_1": r_d1, "rho_d_plus_2": r_d2}
    if not fired:
        return Certificate(kind=LAYER_SANDWICH, fired=False, t=d + 1, numbers=numbers)
    if not (r_d <= r_d1 <= r_d + r_d2):
        raise TheoremViolationError(
            f"layer sandwich failed at depth {depth}: rho_d={r_d}, rho_d+1={r_d1}, rho_d+2={r_d2}"
        )
    if r_d2 == 0 and r_d != r_d1:
        raise TheoremViolationError(
            f"layer sandwich equality failed: rho_d+2=0 but rho_d={r_d} != rho_d+1={r_d1}"
        )
    return Certificate(
        kind=LAYER_SANDWICH,
        fired=True,
        t=d + 1,
        numbers=numbers,
        conclusions=(Conclusion(INEQUALITY_HOLDS),),
    )


def check_rank_split(
    poset: PosetLayers,
    field: FieldSpec,
    depth: int,
    ranks: RankCache | None = None,
) -> list[Certificate]:
    """Rank decomposition of each full-strand layer, one certificate per offset i.

    At the full multidegree, the boundary leaving the degree-(d+i) layer
    sits at chain degree n-d-i and the one entering it at chain degree
    n-d-i+1.  Whenever depth > d+i the layer size r = rho_{d+i} must equal
    the sum of those two ranks (exactness); a strict surplus instead
    certifies depth <= d+i.

    The full strand is built here, bases only; its chain-degree-(n-d-i)
    basis is the degree-(d+i) layer, so r is read off it.  Ranks come from
    :func:`strand_rank`; pass the ``ranks`` dict that
    :func:`exact_depth_multi` filled to reuse every rank the depth scan
    already computed on the full strand, so that only the missing ones
    build their rows.
    """
    n, d = poset.instance.n, poset.instance.d
    full = build_strand(poset, (1 << n) - 1)
    if ranks is None:
        ranks = {}
    out = []
    for i in range(0, n - d):
        r = len(full.basis(n - d - i))
        rank_out = strand_rank(full, n - d - i, field, ranks)
        rank_in = strand_rank(full, n - d - i + 1, field, ranks)
        numbers = {"i": i, "r": r, "rank_in": rank_in, "rank_out": rank_out, "depth": depth}
        if depth > d + i:
            if r != rank_in + rank_out:
                raise TheoremViolationError(
                    f"rank split failed at i={i} over {field.label}: "
                    f"r={r}, rank_in={rank_in}, rank_out={rank_out}, depth={depth}"
                )
            cert = Certificate(
                kind=RANK_SPLIT,
                fired=True,
                t=d + i,
                field=field,
                numbers=numbers,
                conclusions=(Conclusion(RANK_IDENTITY_HOLDS),),
            )
        elif r > rank_in + rank_out:
            cert = Certificate(
                kind=RANK_SPLIT,
                fired=True,
                t=d + i,
                field=field,
                numbers=numbers,
                conclusions=(Conclusion(DEPTH_AT_MOST, d + i),),
            )
        else:
            cert = Certificate(kind=RANK_SPLIT, fired=False, t=d + i, field=field, numbers=numbers)
        out.append(cert)
    return out


def counting_certificates(poset: PosetLayers) -> list[Certificate]:
    """The certificates read off rho and alpha alone, in report order."""
    return [
        check_lower_bound(poset.instance),
        check_base_drop(poset),
        *check_alternating_drop(poset),
        check_principal_gap(poset),
    ]


@dataclass
class AnalysisReport:
    instance: QuotientInstance
    d: int
    hypothesis_flag: bool
    rho: dict[int, int]
    alpha: dict[int, int]
    certificates: list[Certificate]
    depth: dict[str, int]
    sdepth: int | None
    witness: IntervalPartition | None
    inconsistencies: list[str]
    findings: list[str]

    @property
    def consistent(self) -> bool:
        return not self.inconsistencies


def _conclusion_violations(cert: Certificate, depths: dict[str, int]) -> list[str]:
    if not cert.fired:
        return []
    labels = [cert.field.label] if cert.field is not None else sorted(depths)
    out = []
    for label in labels:
        depth = depths[label]
        for c in cert.conclusions:
            ok = True
            if c.kind == DEPTH_AT_MOST:
                ok = depth <= c.value
            elif c.kind == DEPTH_AT_LEAST:
                ok = depth >= c.value
            elif c.kind == DEPTH_EQUALS:
                if c.requires_depth_at_least is None or depth >= c.requires_depth_at_least:
                    ok = depth == c.value
            if not ok:
                out.append(
                    f"certificate {cert.kind}(t={cert.t}) concluded {c.kind}"
                    f"({c.value}) but depth over {label} is {depth}"
                )
    return out


def analyze(
    inst: QuotientInstance,
    fields: tuple[FieldSpec, ...] = (RATIONALS, GF2),
    sdepth_poset_cap: int | None = 40,
) -> AnalysisReport:
    """Run the whole pipeline on one instance and cross-check every conclusion.

    Enumerates the quotient poset once and hands it to every stage, along
    with one rank cache, evaluates all certificates, computes the exact
    depth per requested field and (poset size permitting) the Stanley depth
    with witness, then verifies every fired conclusion against the exact
    depths.  The fields are deduplicated, and an empty list rejected, by
    :func:`exact_depth_multi`; the per-field checks run over the fields of
    its result.  Cross-check failures are collected, never silently
    dropped; ``consistent`` is False when any were found.
    """
    poset = enumerate_quotient(inst)
    ranks: RankCache = {}
    depths_by_field = exact_depth_multi(poset, fields, ranks)
    depths = {f.label: v for f, v in depths_by_field.items()}

    inconsistencies: list[str] = []
    certificates = counting_certificates(poset)
    findings = [c.warning for c in certificates if c.warning]
    for f, depth_f in depths_by_field.items():
        try:
            sandwich = check_layer_sandwich(poset, depth_f)
            sandwich.field = f
            certificates.append(sandwich)
        except TheoremViolationError as exc:
            inconsistencies.append(f"{f.label}: {exc}")
        try:
            certificates.extend(check_rank_split(poset, f, depth_f, ranks))
        except TheoremViolationError as exc:
            inconsistencies.append(f"{f.label}: {exc}")

    for cert in certificates:
        inconsistencies.extend(_conclusion_violations(cert, depths))

    sdepth_value: int | None = None
    witness: IntervalPartition | None = None
    poset_size = len(poset.elements())
    if sdepth_poset_cap is None or poset_size <= sdepth_poset_cap:
        sdepth_value, witness = stanley_depth(poset)
        max_depth = max(depths.values())
        if sdepth_value < max_depth:
            findings.append(
                f"stanley depth {sdepth_value} is below depth {max_depth}; "
                "conjecture counterexample candidate"
            )
    else:
        findings.append(
            f"stanley depth skipped: poset has {poset_size} elements, cap is {sdepth_poset_cap}"
        )

    return AnalysisReport(
        instance=inst,
        d=inst.d,
        hypothesis_flag=inst.hypothesis_flag,
        rho=poset.rho_table(),
        alpha=poset.alpha_table(),
        certificates=certificates,
        depth=depths,
        sdepth=sdepth_value,
        witness=witness,
        inconsistencies=inconsistencies,
        findings=findings,
    )
