"""Command-line interface: analyze, depth, bounds, sdepth, strands, scan.

Each command handler returns its exit code and its JSON document and
prints nothing; :func:`main` prints the document on stdout, compact or,
under --pretty, indented.  This module shapes every JSON document the CLI
prints; the report types it reads have no JSON methods.  Exit codes: 0 ok,
2 parse/validation error, 3 internal inconsistency (a cross-check between
a fired certificate and the exact depth failed, which indicates a bug, not
bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .certificates import SDEPTH_POSET_CAP, AnalysisReport, Certificate, Conclusion, analyze, counting_certificates
from .errors import InputError, InternalConsistencyError
from .instancefile import instance_to_json, parse_instance
from .linalg import GF2, RATIONALS, FieldSpec
from .monomials import Monomial, QuotientInstance
from .poset import enumerate_quotient
from .scan import conjecture_scan
from .stanley import IntervalPartition, stanley_depth
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
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_instance(text)


def _instance_doc(inst: QuotientInstance) -> dict:
    return {"instance": instance_to_json(inst), "d": inst.d}


def _conclusion_json(c: Conclusion) -> dict:
    out = {"kind": c.kind, "value": c.value, "requires_depth_at_least": c.requires_depth_at_least}
    return {key: v for key, v in out.items() if v is not None}


# Written out by hand: dataclasses.asdict takes over 15 times as long per certificate.
def _certificate_json(c: Certificate) -> dict:
    return {
        "kind": c.kind,
        "fired": c.fired,
        "t": c.t,
        "field": None if c.field is None else c.field.label,
        "numbers": c.numbers,
        "conclusions": [_conclusion_json(x) for x in c.conclusions],
        "warning": c.warning,
    }


def _witness_json(witness: IntervalPartition) -> list[dict]:
    return [{"bottom": list(iv.bottom.support), "top": list(iv.top.support)} for iv in witness.intervals]


def report_to_json(report: AnalysisReport) -> dict:
    return {
        **_instance_doc(report.instance),
        "hypothesis_flag": report.instance.hypothesis_flag,
        "rho": {str(t): v for t, v in report.rho.items()},
        "alpha": {str(t): v for t, v in report.alpha.items()},
        "certificates": [_certificate_json(c) for c in report.certificates],
        "depth": report.depth,
        "sdepth": report.sdepth,
        "witness": None if report.witness is None else _witness_json(report.witness),
        "consistent": report.consistent,
        "inconsistencies": report.inconsistencies,
        "findings": report.findings,
    }


def _cmd_analyze(args) -> tuple[int, dict]:
    inst = _read_instance(args.instance)
    fields = _field_args(args.field, (RATIONALS, GF2))
    report = analyze(inst, fields=fields, sdepth_poset_cap=args.max_sdepth_poset)
    return EXIT_OK if report.consistent else EXIT_INCONSISTENT, report_to_json(report)


def _cmd_depth(args) -> tuple[int, dict]:
    inst = _read_instance(args.instance)
    fields = _field_args(args.field, (RATIONALS,))
    depths = exact_depth_multi(enumerate_quotient(inst), fields)
    return EXIT_OK, {**_instance_doc(inst), "depth": {f.label: v for f, v in depths.items()}}


def _cmd_bounds(args) -> tuple[int, dict]:
    inst = _read_instance(args.instance)
    poset = enumerate_quotient(inst)
    certs = counting_certificates(poset)
    return EXIT_OK, {
        **_instance_doc(inst),
        "rho": {str(t): v for t, v in poset.rho_table().items()},
        "alpha": {str(t): v for t, v in poset.alpha_table().items()},
        "certificates": [_certificate_json(c) for c in certs],
    }


def _cmd_sdepth(args) -> tuple[int, dict]:
    inst = _read_instance(args.instance)
    value, witness = stanley_depth(enumerate_quotient(inst))
    return EXIT_OK, {**_instance_doc(inst), "sdepth": value, "witness": _witness_json(witness)}


def _cmd_strands(args) -> tuple[int, dict]:
    inst = _read_instance(args.instance)
    n = inst.n
    if args.multidegree is not None:
        parts = [part.strip() for part in args.multidegree.split(",")]
        # ASCII digits only: int() would also take signs, underscores and non-ASCII digits.
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise InputError(f"bad multidegree {args.multidegree!r}; expected comma-separated indices")
        a = Monomial.from_support(n, [int(part) for part in parts])
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
    return EXIT_OK, {
        "instance": instance_to_json(inst),
        "multidegree": list(a.support),
        "bases": {str(i): [list(m.support) for m in row] for i, row in bases.items()},
        "boundaries": boundaries,
    }


def _cmd_scan(args) -> tuple[int, dict]:
    report = conjecture_scan(args.n, args.count, args.seed, args.max_sdepth_poset)
    records = [{**asdict(r), **_instance_doc(r.instance)} for r in report.records]
    return EXIT_OK, {**asdict(report), "records": records}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqfdepth",
        description="Depth and Stanley depth analysis for quotients of square-free monomial ideals.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report: counts, certificates, depth, sdepth")
    p.add_argument("instance")
    p.add_argument("--field", action="append", help="q or gf:<p>; repeatable (default: q and gf:2)")
    p.add_argument("--max-sdepth-poset", type=int, default=SDEPTH_POSET_CAP,
                   help="skip the Stanley computation when the poset exceeds this size (default %(default)s)")
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
    p.add_argument("--max-sdepth-poset", type=int, default=SDEPTH_POSET_CAP)
    p.set_defaults(func=_cmd_scan)

    return parser


# Built once: argparse spends about a millisecond per build.  Parsing shares
# no state between calls (--field appends to a fresh list on each parse).
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code, doc = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InternalConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    print(json.dumps(doc, sort_keys=True, indent=2 if args.pretty else None))
    return code


if __name__ == "__main__":
    sys.exit(main())
