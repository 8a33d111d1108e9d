"""Checkable depth certificates driven by layer counts and strand ranks.

Each checker evaluates one combinatorial criterion against an instance and
returns a Certificate recording the numbers it consumed and what they
conclude about depth; a certificate has fired when it concludes anything.
Certificates are data, not booleans, so a failing cross-check is
diagnosable from the report alone.  No checker judges its own result:
:func:`analyze` checks every conclusion against the exact depths, so a
criterion that fails where it must hold stays in the report as a violated
depth bound.

Kinds:

* ``lower_bound``       degree hypothesis on J   =>  depth >= d
* ``base_drop``         rho_d > rho_{d+1}        =>  depth = d
* ``alternating_drop``  rho_{t+1} < alpha_t      =>  depth <= t, and = t once
                        depth >= t is known independently
* ``principal_gap``     I principal, rho_{d+1} > rho_{d+2} + 1  =>  depth = d+1
* ``layer_sandwich``    depth >= d+2  =>  rho_d <= rho_{d+1} <= rho_d + rho_{d+2};
                        a failing sandwich concludes depth <= d+1, exactly
                        where ``base_drop`` or ``alternating_drop(t=d+1)``
                        fires
* ``rank_split``        a surplus of rho_{d+i} over the ranks of the two
                        adjacent full-strand boundary maps  =>  depth <= d+i;
                        with no surplus and depth > d+i the layer splits
                        as the sum of those ranks
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import require_nonnegative_int
from .linalg import GF2, RATIONALS, FieldSpec
from .monomials import QuotientInstance
from .poset import PosetLayers, enumerate_quotient
from .stanley import IntervalPartition, stanley_depth
from .strands import build_strand, exact_depth_multi, homology_dim, strand_rank

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

# Posets larger than this skip the Stanley search by default.
SDEPTH_POSET_CAP = 40


@dataclass(frozen=True)
class Conclusion:
    kind: str
    value: int | None = None
    requires_depth_at_least: int | None = None


@dataclass
class Certificate:
    kind: str
    t: int | None = None
    field: FieldSpec | None = None
    numbers: dict[str, int] = dc_field(default_factory=dict)
    conclusions: tuple[Conclusion, ...] = ()
    warning: str | None = None

    @property
    def fired(self) -> bool:
        return bool(self.conclusions)


def check_lower_bound(inst: QuotientInstance) -> Certificate:
    """depth >= d whenever every generator of J has degree >= d + 1."""
    fired = inst.hypothesis_flag
    conclusions = (Conclusion(DEPTH_AT_LEAST, inst.d),) if fired else ()
    warning = None if fired else "J has a generator of degree <= d; the lower bound does not apply"
    return Certificate(
        kind=LOWER_BOUND,
        numbers={"d": inst.d},
        conclusions=conclusions,
        warning=warning,
    )


def check_base_drop(poset: PosetLayers) -> Certificate:
    """A drop from the bottom layer to the next pins depth to d.

    rho_d > rho_{d+1} makes the bottom boundary map of the full strand fail
    injectivity by a rank surplus, so depth <= d; with the standing lower
    bound this is equality.
    """
    d = PosetLayers.require(poset).instance.d
    r_d, r_d1 = poset.rho(d), poset.rho(d + 1)
    conclusions = ()
    if r_d > r_d1:
        conclusions = (Conclusion(DEPTH_AT_MOST, d), Conclusion(DEPTH_EQUALS, d))
    return Certificate(
        kind=BASE_DROP,
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
    inst = PosetLayers.require(poset).instance
    n, d = inst.n, inst.d
    alpha = poset.alpha_table()
    out = []
    for t in range(d, n + 1):
        r_next = poset.rho(t + 1)
        a_t = alpha[t]
        conclusions = ()
        if r_next < a_t:
            conclusions = (
                Conclusion(DEPTH_AT_MOST, t),
                Conclusion(DEPTH_EQUALS, t, requires_depth_at_least=t),
            )
        out.append(
            Certificate(
                kind=ALTERNATING_DROP,
                t=t,
                numbers={"rho_t_plus_1": r_next, "alpha_t": a_t},
                conclusions=conclusions,
            )
        )
    return out


def check_principal_gap(poset: PosetLayers) -> Certificate:
    """Principal I with rho_{d+1} exceeding rho_{d+2} + 1 pins depth to d + 1."""
    inst = PosetLayers.require(poset).instance
    d = inst.d
    s, q = poset.rho(d + 1), poset.rho(d + 2)
    principal = len(inst.gens_i) == 1
    fired = principal and s > q + 1
    conclusions = (Conclusion(DEPTH_EQUALS, d + 1),) if fired else ()
    return Certificate(
        kind=PRINCIPAL_GAP,
        t=d + 1,
        numbers={"s": s, "q": q, "generators_of_I": len(inst.gens_i)},
        conclusions=conclusions,
    )


def check_layer_sandwich(poset: PosetLayers, field: FieldSpec, depth: int) -> Certificate:
    """With depth >= d + 2, the middle layer is sandwiched:
    rho_d <= rho_{d+1} <= rho_d + rho_{d+2}, so rho_{d+2} = 0 forces equality
    on the left.

    The sandwich fails exactly where a drop fires: rho_{d+1} < rho_d is
    ``base_drop``, and rho_{d+1} > rho_d + rho_{d+2} is
    rho_{d+2} < alpha_{d+1}, i.e. ``alternating_drop(t=d+1)``.  Either way
    depth <= d+1, which is what a failing sandwich concludes.
    """
    d = PosetLayers.require(poset).instance.d
    r_d, r_d1, r_d2 = poset.rho(d), poset.rho(d + 1), poset.rho(d + 2)
    conclusions = ()
    if depth >= d + 2:
        holds = r_d <= r_d1 <= r_d + r_d2
        conclusions = (Conclusion(INEQUALITY_HOLDS) if holds else Conclusion(DEPTH_AT_MOST, d + 1),)
    return Certificate(
        kind=LAYER_SANDWICH,
        t=d + 1,
        field=field,
        numbers={"depth": depth, "rho_d": r_d, "rho_d_plus_1": r_d1, "rho_d_plus_2": r_d2},
        conclusions=conclusions,
    )


def check_rank_split(poset: PosetLayers, field: FieldSpec, depth: int) -> list[Certificate]:
    """Rank decomposition of each full-strand layer, one certificate per offset i.

    At the full multidegree, the boundary leaving the degree-(d+i) layer
    sits at chain degree n-d-i and the one entering it at chain degree
    n-d-i+1.  The surplus r - rank_in - rank_out of the layer size
    r = rho_{d+i} over those two ranks is the full strand's homology at
    chain degree n-d-i, so a nonzero surplus certifies depth <= d+i at any
    depth; with no surplus and depth > d+i the layer splits exactly as the
    sum of the two ranks.  :func:`homology_dim` raises on a negative
    surplus, so an impossible r < rank_in + rank_out never passes as a
    split.

    The full strand is built here, bases only; its chain-degree-(n-d-i)
    basis is the degree-(d+i) layer, so r is read off it.  Ranks come from
    :func:`strand_rank`, through the poset's rank memo: every rank that
    :func:`exact_depth_multi` already computed on the full strand of this
    poset is reused, so only the missing ones build their rows.  Over Q a
    rank is taken from GF(2) whenever the GF(2) homology vanishes at either
    end of its map, so on a full strand that is exact mod 2 the split costs
    GF(2) ranks alone; Bareiss runs only on a map between two layers that
    both carry GF(2) homology.
    """
    inst = PosetLayers.require(poset).instance
    n, d = inst.n, inst.d
    full = build_strand(poset, (1 << n) - 1)
    out = []
    for i in range(0, n - d):
        j = n - d - i
        conclusions: tuple[Conclusion, ...] = ()
        if homology_dim(full, j, field):
            conclusions = (Conclusion(DEPTH_AT_MOST, d + i),)
        elif depth > d + i:
            conclusions = (Conclusion(RANK_IDENTITY_HOLDS),)
        out.append(
            Certificate(
                kind=RANK_SPLIT,
                t=d + i,
                field=field,
                numbers={
                    "i": i,
                    "r": len(full.basis(j)),
                    "rank_in": strand_rank(full, j + 1, field),
                    "rank_out": strand_rank(full, j, field),
                    "depth": depth,
                },
                conclusions=conclusions,
            )
        )
    return out


def counting_certificates(poset: PosetLayers) -> list[Certificate]:
    """The certificates read off rho and alpha alone, in report order."""
    return [
        check_lower_bound(PosetLayers.require(poset).instance),
        check_base_drop(poset),
        *check_alternating_drop(poset),
        check_principal_gap(poset),
    ]


@dataclass
class AnalysisReport:
    instance: QuotientInstance
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
    sdepth_poset_cap: int | None = SDEPTH_POSET_CAP,
) -> AnalysisReport:
    """Run the whole pipeline on one instance and cross-check every conclusion.

    Enumerates the quotient poset once and hands it, with its rank memo, to
    every stage, evaluates all certificates, computes the exact depth per
    requested field and (unless the poset has more than ``sdepth_poset_cap``
    elements) the Stanley depth with witness, then verifies every
    conclusion against the exact depths; this is the only place a
    certificate is judged.  The fields are deduplicated, and a non-iterable,
    an empty list or an entry that is not a :class:`FieldSpec` rejected, by
    :func:`exact_depth_multi`; the per-field checks run over the fields of
    its result.  Cross-check failures are collected, never silently
    dropped; ``consistent`` is False when any were found.  The cap is
    ``None`` (no cap) or an int of at least 0, else :class:`InputError`.
    """
    if sdepth_poset_cap is not None:
        require_nonnegative_int("sdepth_poset_cap", sdepth_poset_cap)
    poset = enumerate_quotient(inst)
    depths_by_field = exact_depth_multi(poset, fields)
    depths = {f.label: v for f, v in depths_by_field.items()}

    certificates = counting_certificates(poset)
    findings = [c.warning for c in certificates if c.warning]
    for f, depth_f in depths_by_field.items():
        certificates.append(check_layer_sandwich(poset, f, depth_f))
        certificates.extend(check_rank_split(poset, f, depth_f))
    inconsistencies = [v for cert in certificates for v in _conclusion_violations(cert, depths)]

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
        rho=poset.rho_table(),
        alpha=poset.alpha_table(),
        certificates=certificates,
        depth=depths,
        sdepth=sdepth_value,
        witness=witness,
        inconsistencies=inconsistencies,
        findings=findings,
    )
