"""Command-line interface: analyze, depth, bounds, sdepth, strands, scan.

Reports are JSON on stdout; human-readable tables go to stderr under
--pretty.  Exit codes: 0 ok, 2 parse/validation error, 3 internal
inconsistency (a cross-check between a fired certificate and the exact
depth failed, which indicates a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certificates import AnalysisReport, analyze, counting_certificates
from .errors import InputError, InternalConsistencyError, ValidationError
from .generate import default_params
from .instancefile import MAX_VARIABLES, instance_to_json, parse_instance
from .linalg import GF2, RATIONALS, FieldSpec
from .monomials import Monomial, QuotientInstance
from .poset import enumerate_quotient
from .scan import conjecture_scan
from .stanley import stanley_depth
from .strands import build_strand, exact_depth_multi

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3


def _field_args(values: list[str] | None, default: tuple[FieldSpec, ...]) -> tuple[FieldSpec, ...]:
    if not values:
        return default
    return tuple(FieldSpec.parse(v) for v in values)


def _read_instance(path: str) -> QuotientInstance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    return parse_instance(text)


def _emit(doc: dict, pretty_lines: list[str] | None = None) -> None:
    print(json.dumps(doc, sort_keys=True))
    if pretty_lines:
        print("\n".join(pretty_lines), file=sys.stderr)


def report_to_json(report: AnalysisReport) -> dict:
    return {
        "instance": instance_to_json(report.instance),
        "d": report.d,
        "hypothesis_flag": report.hypothesis_flag,
        "rho": {str(t): v for t, v in report.rho.items()},
        "alpha": {str(t): v for t, v in report.alpha.items()},
        "certificates": [c.to_json_dict() for c in report.certificates],
        "depth": report.depth,
        "sdepth": report.sdepth,
        "witness": None if report.witness is None else report.witness.to_json_list(),
        "consistent": report.consistent,
        "inconsistencies": report.inconsistencies,
        "findings": report.findings,
    }


def _pretty_report(report: AnalysisReport) -> list[str]:
    lines = [f"d = {report.d}   hypothesis: {'yes' if report.hypothesis_flag else 'NO'}"]
    lines.append("  t    rho  alpha")
    for t in sorted(report.rho):
        alpha = report.alpha.get(t)
        lines.append(f"{t:3d} {report.rho[t]:6d} {alpha if alpha is not None else '':>6}")
    fired = [c for c in report.certificates if c.fired]
    lines.append("fired certificates:")
    for c in fired:
        where = f" over {c.field.label}" if c.field else ""
        lines.append(f"  {c.kind}(t={c.t}){where}: " + ", ".join(
            f"{conc.kind}{'' if conc.value is None else f'({conc.value})'}" for conc in c.conclusions
        ))
    lines.append("depth: " + ", ".join(f"{k}={v}" for k, v in sorted(report.depth.items())))
    if report.sdepth is not None:
        lines.append(f"sdepth: {report.sdepth}")
    lines.append("consistent" if report.consistent else "INCONSISTENT")
    return lines


def _cmd_analyze(args) -> int:
    inst = _read_instance(args.instance)
    fields = _field_args(args.field, (RATIONALS, GF2))
    report = analyze(inst, fields=fields, sdepth_poset_cap=args.max_sdepth_poset)
    _emit(report_to_json(report), _pretty_report(report) if args.pretty else None)
    return EXIT_OK if report.consistent else EXIT_INCONSISTENT


def _cmd_depth(args) -> int:
    inst = _read_instance(args.instance)
    fields = _field_args(args.field, (RATIONALS,))
    depths = exact_depth_multi(enumerate_quotient(inst), fields)
    _emit({
        "instance": instance_to_json(inst),
        "d": inst.d,
        "depth": {f.label: v for f, v in depths.items()},
    })
    return EXIT_OK


def _cmd_bounds(args) -> int:
    inst = _read_instance(args.instance)
    poset = enumerate_quotient(inst)
    certs = counting_certificates(poset)
    _emit({
        "instance": instance_to_json(inst),
        "d": inst.d,
        "rho": {str(t): v for t, v in poset.rho_table().items()},
        "alpha": {str(t): v for t, v in poset.alpha_table().items()},
        "certificates": [c.to_json_dict() for c in certs],
    })
    return EXIT_OK


def _cmd_sdepth(args) -> int:
    inst = _read_instance(args.instance)
    value, witness = stanley_depth(enumerate_quotient(inst))
    _emit({
        "instance": instance_to_json(inst),
        "d": inst.d,
        "sdepth": value,
        "witness": witness.to_json_list(),
    })
    return EXIT_OK


def _cmd_strands(args) -> int:
    inst = _read_instance(args.instance)
    n = inst.n
    if args.multidegree:
        try:
            indices = [int(part) for part in args.multidegree.split(",") if part]
        except ValueError:
            raise ValidationError(f"bad multidegree {args.multidegree!r}; expected comma-separated indices")
        a = Monomial.from_support(n, indices)
    else:
        a = Monomial(n, (1 << n) - 1)
    strand = build_strand(enumerate_quotient(inst), a.mask)
    bases = {i: [Monomial(n, m) for m in strand.basis(i)] for i in strand.chain_degrees()}
    boundaries = {}
    for i in strand.chain_degrees():
        if i == 0:
            continue
        boundaries[str(i)] = {
            "rows": len(bases[i - 1]),
            "cols": len(bases[i]),
            "entries": [list(r) for r in strand.entries(i)],
            "row_labels": [str(m) for m in bases[i - 1]],
            "col_labels": [str(m) for m in bases[i]],
        }
    _emit({
        "instance": instance_to_json(inst),
        "multidegree": list(a.support),
        "bases": {str(i): [list(m.support) for m in row] for i, row in bases.items()},
        "boundaries": boundaries,
    })
    return EXIT_OK


def _cmd_scan(args) -> int:
    if args.n > MAX_VARIABLES:
        raise ValidationError(f"n = {args.n} exceeds the supported limit of {MAX_VARIABLES}")
    if args.count < 0:
        raise ValidationError(f"--count must be nonnegative, got {args.count}")
    params = default_params(args.n)
    report = conjecture_scan(
        params, count=args.count, seed=args.seed, max_sdepth_poset=args.max_sdepth_poset
    )
    _emit(report.to_json_dict())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqfdepth",
        description="Depth and Stanley depth analysis for quotients of square-free monomial ideals.",
    )
    parser.add_argument("--pretty", action="store_true", help="print human-readable tables to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report: counts, certificates, depth, sdepth")
    p.add_argument("instance")
    p.add_argument("--field", action="append", help="q or gf:<p>; repeatable (default: q and gf:2)")
    p.add_argument("--max-sdepth-poset", type=int, default=40,
                   help="skip the Stanley computation when the poset exceeds this size (default 40)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("depth", help="exact depth only")
    p.add_argument("instance")
    p.add_argument("--field", action="append", help="q or gf:<p>; repeatable (default: q)")
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("bounds", help="counting certificates only, no homology")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sdepth", help="Stanley depth with witness partition")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_sdepth)

    p = sub.add_parser("strands", help="dump one strand's bases and boundary matrices")
    p.add_argument("instance")
    p.add_argument("--multidegree", help="comma-separated variable indices (default: all variables)")
    p.set_defaults(func=_cmd_strands)

    p = sub.add_parser("scan", help="seeded random scan comparing sdepth, depth, and bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-sdepth-poset", type=int, default=40)
    p.set_defaults(func=_cmd_scan)

    return parser


# Built once: argparse spends about a millisecond per build.  Parsing shares
# no state between calls (--field appends to a fresh list on each parse).
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InternalConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
