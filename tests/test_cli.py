"""CLI dispatch, instance file format, and report serialization."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st

import sqfdepth.certificates as certificates_module
import sqfdepth.poset as poset_module
from sqfdepth import (
    GF2,
    RATIONALS,
    Conclusion,
    InputError,
    InternalConsistencyError,
    Monomial,
    build_strand,
    check_alternating_drop,
    check_base_drop,
    check_layer_sandwich,
    check_principal_gap,
    check_rank_split,
    conjecture_scan,
    counting_certificates,
    enumerate_quotient,
    exact_depth_multi,
    instance_to_json,
    parse_instance,
    partition_exists,
    random_instance,
    stanley_depth,
    verify_partition,
)
from sqfdepth.certificates import DEPTH_AT_MOST, DEPTH_EQUALS
from sqfdepth.cli import main, report_to_json
from sqfdepth.generate import default_params
from sqfdepth.stanley import Interval, IntervalPartition

from oracles import GF3, hypothesis_violating_instances, mono, patch_everywhere, rp2_cone_instance, serialize_instance

PAPER = '{"n":4,"I":[[1],[3]],"J":[[1,4]]}'
PAPER_JPRIME = '{"n":4,"I":[[1],[3]],"J":[[1,4],[2,3,4]]}'


def test_parse_instance_paper():
    inst = parse_instance(PAPER)
    assert inst.n == 4
    assert inst.gens_i == (0b0001, 0b0100)
    assert inst.gens_j == (0b1001,)


def test_parse_instance_jprime():
    inst = parse_instance(PAPER_JPRIME)
    assert inst.gens_j == (0b1001, 0b1110)


def test_parse_instance_errors():
    cases = [
        ('{"n":2,"I":[[1,1]],"J":[]}', "duplicate", "I[0]"),
        ('{"n":2,"I":[[3]],"J":[]}', "out of range", "I[0]"),
        ("{nope", "invalid JSON", None),
        ('{"n":2,"I":[[1]]}', "missing key", None),
        ('[{"n":2,"I":[[1]],"J":[]}]', "must be a JSON object", None),
        ('{"n":0,"I":[[1]],"J":[]}', "positive integer", "n"),
        ('{"n":21,"I":[[1]],"J":[]}', "exceeds the supported limit of 20", "n"),
        ('{"n":3,"I":5,"J":[]}', "expected a list of generator supports", "I"),
        ('{"n":3,"I":[[1]],"J":{"1":[2]}}', "expected a list of generator supports", "J"),
        ('{"n":3,"I":[[1],2],"J":[]}', "expected a list of variable indices", "I[1]"),
        ('{"n":3,"I":[[1],[2]],"J":[[2],["3"]]}', "out of range", "J[1]"),
        ('{"n":4,"I":[[1],[3]],"J":[[2,4]]}', "does not lie in I", None),
    ]
    for text, match, location in cases:
        with pytest.raises(InputError, match=match) as info:
            parse_instance(text)
        assert info.value.location == location, text


def test_serialize_roundtrip_on_fuzz():
    rng = random.Random(3)
    for n in (3, 4, 5, 6):
        for _ in range(20):
            inst = random_instance(n, rng)
            assert parse_instance(serialize_instance(inst)) == inst


def test_generator_draws_are_pinned():
    # The benchmark's seeded corpora and golden answers are made by these draws,
    # so the generator must keep its rng call sequence exactly.
    docs = []
    for seed in (1, 2, 3):
        for n in range(1, 13):
            rng = random.Random(seed * 100 + n)
            docs += [instance_to_json(random_instance(default_params(n), rng)) for _ in range(300)]
    digest = hashlib.sha256(json.dumps(docs).encode()).hexdigest()
    assert digest == "da89f85e0acaff7ea7839ae9060bf905b08c5a6aee761cac2e3c15ac8bcdc244"


def run_cli(tmp_path, capsys, *argv, instance_text=None):
    args = list(argv)
    if instance_text is not None:
        path = tmp_path / "instance.json"
        path.write_text(instance_text, encoding="utf-8")
        args.append(str(path))
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_analyze_paper(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, "analyze", instance_text=PAPER)
    assert code == 0
    doc = json.loads(out)
    assert doc["depth"] == {"q": 3, "gf:2": 3}
    assert doc["sdepth"] == 3
    assert doc["consistent"] is True
    assert doc["rho"]["2"] == 4
    assert doc["alpha"]["2"] == 2
    fired = [c for c in doc["certificates"] if c["kind"] == "alternating_drop" and c["fired"]]
    assert not any(c["t"] < 3 for c in fired)


def test_cli_analyze_jprime_with_fields(tmp_path, capsys):
    code, out, _ = run_cli(
        tmp_path, capsys, "analyze", "--field", "q", "--field", "gf:3",
        instance_text=PAPER_JPRIME,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["depth"] == {"q": 2, "gf:3": 2}
    fired = [c["t"] for c in doc["certificates"] if c["kind"] == "alternating_drop" and c["fired"]]
    assert 2 in fired


PRETTY_CALLS = {
    "analyze": (("analyze",), PAPER),
    "depth": (("depth",), PAPER),
    "bounds": (("bounds",), PAPER),
    "sdepth": (("sdepth",), PAPER),
    "strands": (("strands",), PAPER),
    "scan": (("scan", "--n", "4", "--count", "3"), None),
}


@pytest.mark.parametrize("command", list(PRETTY_CALLS))
def test_cli_pretty_indents_the_same_document(tmp_path, capsys, command):
    argv, text = PRETTY_CALLS[command]
    code, out, err = run_cli(tmp_path, capsys, *argv, instance_text=text)
    pretty_code, pretty_out, pretty_err = run_cli(tmp_path, capsys, "--pretty", *argv, instance_text=text)
    assert (pretty_code, err, pretty_err) == (code, "", "")
    assert out.count("\n") == 1
    assert pretty_out.count("\n") > 1
    assert json.loads(pretty_out) == json.loads(out)


def test_cli_pretty_keeps_a_bad_field_an_error(tmp_path, capsys):
    code, out, err = run_cli(tmp_path, capsys, "--pretty", "analyze", "--field", "gf:4", instance_text=PAPER)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_cli_depth(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, "depth", "--field", "gf:2", instance_text=PAPER)
    assert code == 0
    assert json.loads(out)["depth"] == {"gf:2": 3}


def test_cli_bounds_has_no_homology_keys(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, "bounds", instance_text=PAPER_JPRIME)
    assert code == 0
    doc = json.loads(out)
    assert "depth" not in doc
    kinds = {c["kind"] for c in doc["certificates"]}
    assert kinds == {"lower_bound", "base_drop", "alternating_drop", "principal_gap"}


def test_cli_sdepth_witness_verifies(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, "sdepth", instance_text=PAPER)
    assert code == 0
    doc = json.loads(out)
    assert doc["sdepth"] == 3
    inst = parse_instance(PAPER)
    partition = IntervalPartition(
        intervals=tuple(
            Interval(mono(4, *iv["bottom"]), mono(4, *iv["top"])) for iv in doc["witness"]
        ),
        sdepth_value=doc["sdepth"],
    )
    assert verify_partition(inst, partition).ok


def test_cli_strands_dump(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys, "strands", "--multidegree", "1,2,3,4", instance_text=PAPER
    )
    assert code == 0
    # Spaces around the indices are allowed.
    assert run_cli(tmp_path, capsys, "strands", "--multidegree", " 1, 2,3 ,4", instance_text=PAPER) == (code, out, err)
    doc = json.loads(out)
    assert doc["bases"]["3"] == [[1], [3]]
    assert doc["boundaries"]["3"]["entries"] == [[1, 0], [-1, 1], [0, -1], [0, 1]]
    assert doc["boundaries"]["2"]["entries"] == [[1, 1, 1, 0], [0, 0, -1, -1]]


def test_cli_strands_labels_name_the_bases(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, "strands", instance_text=PAPER)
    assert code == 0
    labels = {
        i: (mat["row_labels"], mat["col_labels"]) for i, mat in json.loads(out)["boundaries"].items()
    }
    layer2 = ["x1*x2", "x1*x3", "x2*x3", "x3*x4"]
    layer3 = ["x1*x2*x3", "x2*x3*x4"]
    assert labels == {
        "1": ([], layer3),
        "2": (layer3, layer2),
        "3": (layer2, ["x1", "x3"]),
        "4": (["x1", "x3"], []),
    }


def test_cli_strands_default_multidegree_is_full(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, "strands", instance_text=PAPER)
    assert code == 0
    assert json.loads(out)["multidegree"] == [1, 2, 3, 4]


def test_cli_validation_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, "analyze", instance_text='{"n":2,"I":[[1,1]],"J":[]}')
    assert code == 2
    assert "error" in err


def test_cli_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2
    assert "error" in err


def test_cli_scan_deterministic_bytes(tmp_path, capsys):
    code, out1, _ = run_cli(tmp_path, capsys, "scan", "--n", "4", "--count", "25", "--seed", "7")
    assert code == 0
    code, out2, _ = run_cli(tmp_path, capsys, "scan", "--n", "4", "--count", "25", "--seed", "7")
    assert code == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["stanley_violations"] == []
    assert len(doc["records"]) == 25


def test_cli_scan_output_is_pinned(tmp_path, capsys):
    # A scan's stdout is fixed by its arguments; these digests pin it across changes
    # to how its records are computed.
    pinned = {
        ("--n", "6", "--count", "200", "--seed", "601"):
            "402408a09ed3913ecd3bf4c82f49d3756df8b6ccb92d081ae8762c275013156b",
        ("--n", "6", "--count", "40", "--seed", "2", "--max-sdepth-poset", "5"):
            "d3353ec31179c26dabb17ca0cfd18f33513bb97a5561aab170317981a078b164",
        ("--n", "1", "--count", "3"):
            "5bd8436d2e917cd06d7ea36bbf8fc18f5de558e8524dc094a7f948f6596851d6",
    }
    for argv, digest in pinned.items():
        code, out, err = run_cli(tmp_path, capsys, "scan", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# Invalid documents: J outside I, an index out of range, a duplicate index, n = 0, J = I.
INVALID_DOCUMENTS = (
    '{"n":4,"I":[[1],[3]],"J":[[2,4]]}',
    '{"n":3,"I":[[1],[4]],"J":[]}',
    '{"n":3,"I":[[1],[2,2]],"J":[]}',
    '{"n":0,"I":[[1]],"J":[]}',
    '{"n":3,"I":[[1],[2,3]],"J":[[2,3],[1]]}',
)


def test_cli_outputs_are_pinned(tmp_path, capsys):
    # Every instance command's exit code, stdout and stderr are fixed by its
    # input; one digest per command pins them across changes to how they are
    # computed.
    texts = [PAPER, PAPER_JPRIME, serialize_instance(rp2_cone_instance())]
    texts += [serialize_instance(inst) for inst in hypothesis_violating_instances()[:60]]
    texts += INVALID_DOCUMENTS
    pinned = {
        ("analyze",): "248f7ba2451c49097842275d169845bcfb9cde1a126b90cfda2c1c9bbabf042d",
        ("analyze", "--field", "q", "--field", "gf:2", "--field", "gf:3"):
            "af3d8726fca3cf22274faab90e5aea001e56e79a00a58b7fdd73450984326f01",
        ("--pretty", "analyze"): "6512c9554c0c36e09543db83c144cde1528003d52f72a045ddde4e8a57d7dd29",
        ("bounds",): "d3e4f97adf7dbe906101fcc0309e3a771ad4e3a79847d5bb3a97dc7d9e60a782",
        ("depth", "--field", "q", "--field", "gf:2", "--field", "gf:3"):
            "f526324f6fa0fb2de75ad2883c5778efb71e157ac482d1feb18dccc1835704ef",
        ("sdepth",): "b8696f5d6d975c957280b8458cfc36de328b6052e9c23b1bd27d4375e7a89c91",
        ("strands",): "0153e0f4b37383dfb1f7b67bee0e208bd2bd7ded17667a770d45dd092d6cd50d",
    }
    for argv, digest in pinned.items():
        h = hashlib.sha256()
        for text in texts:
            code, out, err = run_cli(tmp_path, capsys, *argv, instance_text=text)
            h.update(json.dumps([code, out, err]).encode())
        assert h.hexdigest() == digest, argv


def test_scan_cross_checks_every_fired_certificate(tmp_path, capsys, monkeypatch):
    # A base-drop checker that always fires depth = n + 1, which no depth meets.
    original = certificates_module.check_base_drop
    calls: list[int] = []

    def wrong(poset):
        n = poset.instance.n
        calls.append(n)
        return replace(original(poset), conclusions=(Conclusion(DEPTH_EQUALS, n + 1),))

    patch_everywhere(monkeypatch, original, wrong)
    with pytest.raises(InternalConsistencyError, match=r"^scan record 0: certificate base_drop"):
        conjecture_scan(4, count=3, seed=1)
    assert calls == [4]
    code, out, err = run_cli(tmp_path, capsys, "scan", "--n", "4", "--count", "3", "--seed", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("internal inconsistency: scan record 0: certificate base_drop")


def test_contradicted_certificate_stays_in_the_report(tmp_path, capsys, monkeypatch):
    # Zero every full-strand rank the depth scan left in the poset's memo.  The
    # rank split then sees a surplus at each offset, and the depth bounds it
    # concludes that the exact depth contradicts are reported like any other
    # inconsistency.
    original = certificates_module.exact_depth_multi

    def corrupt(poset, fields):
        depths = original(poset, fields)
        full = (1 << poset.instance.n) - 1
        for key in poset.ranks:
            if key[0] == full:
                poset.ranks[key] = 0
        return depths

    monkeypatch.setattr(certificates_module, "exact_depth_multi", corrupt)
    report = certificates_module.analyze(parse_instance(PAPER))
    assert not report.consistent
    assert report.depth == {"q": 3, "gf:2": 3}
    for label in ("q", "gf:2"):
        splits = [c for c in report.certificates if c.kind == "rank_split" and c.field.label == label]
        assert [(c.t, c.conclusions) for c in splits] == [(t, (Conclusion(DEPTH_AT_MOST, t),)) for t in (1, 2, 3)]
    assert report.inconsistencies == [
        f"certificate rank_split(t={t}) concluded depth_at_most({t}) but depth over {label} is 3"
        for label in ("q", "gf:2")
        for t in (1, 2)
    ]
    code, out, err = run_cli(tmp_path, capsys, "analyze", instance_text=PAPER)
    assert (code, err) == (3, "")
    assert json.loads(out) == json.loads(json.dumps(report_to_json(report)))


def test_stanley_depth_below_depth_is_a_finding_not_an_inconsistency(tmp_path, capsys, monkeypatch):
    # A Stanley depth of 1 on every instance: a conjecture counterexample
    # wherever the depth exceeds 1, and a bound gap wherever a drop fired above 1.
    original = stanley_depth

    def low(poset):
        return 1, original(poset)[1]

    patch_everywhere(monkeypatch, original, low)
    report = certificates_module.analyze(parse_instance(PAPER))
    assert report.consistent and report.inconsistencies == []
    assert report.sdepth == 1
    assert "stanley depth 1 is below depth 3; conjecture counterexample candidate" in report.findings

    scan = conjecture_scan(3, count=8, seed=1)
    assert [max(r.depth.values()) for r in scan.records] == [3, 2, 2, 2, 2, 2, 2, 1]
    assert [r.min_fired_drop for r in scan.records] == [None, 2, None, 2, 2, None, 2, 1]
    assert scan.stanley_violations == [0, 1, 2, 3, 4, 5, 6]
    assert scan.bound_gap_findings == [1, 3, 4, 6]

    code, out, err = run_cli(tmp_path, capsys, "scan", "--n", "3", "--count", "8", "--seed", "1")
    assert (code, err) == (0, "")
    records = [{**asdict(r), "instance": instance_to_json(r.instance), "d": r.instance.d} for r in scan.records]
    assert json.loads(out) == {**asdict(scan), "records": records}
    code, out, err = run_cli(tmp_path, capsys, "analyze", instance_text=PAPER)
    assert (code, err) == (0, "")
    assert json.loads(out)["findings"] == report.findings


def test_cli_scan_different_seed_differs(tmp_path, capsys):
    _, out1, _ = run_cli(tmp_path, capsys, "scan", "--n", "4", "--count", "10", "--seed", "1")
    _, out2, _ = run_cli(tmp_path, capsys, "scan", "--n", "4", "--count", "10", "--seed", "2")
    assert out1 != out2


def test_cli_analyze_sdepth_cap_skips(tmp_path, capsys):
    code, out, _ = run_cli(
        tmp_path, capsys, "analyze", "--max-sdepth-poset", "2", instance_text=PAPER
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sdepth"] is None and doc["witness"] is None
    assert any("skipped" in f for f in doc["findings"])


def test_cli_single_variable_instance(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, "analyze", instance_text='{"n":1,"I":[[1]],"J":[]}')
    assert code == 0
    doc = json.loads(out)
    assert doc["depth"] == {"q": 1, "gf:2": 1}
    assert doc["sdepth"] == 1


def test_cli_scan_one_variable(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, "scan", "--n", "1", "--count", "3")
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 3
    for record in records:
        assert record["depth"] == {"q": 1, "gf:2": 1}
        assert record["sdepth"] == 1


def _band_text(n, low, high):
    """I_{n,low}/I_{n,high}: all square-free monomials of degree low..high-1."""
    def layer(k):
        return [list(c) for c in itertools.combinations(range(1, n + 1), k)]

    return json.dumps({"n": n, "I": layer(low), "J": layer(high)})


def test_cli_sdepth_band_7_2_5(tmp_path, capsys):
    # Counting rejects k = 4 at once; an exhaustive search for a partition
    # at k = 4 runs for minutes.
    code, out, _ = run_cli(tmp_path, capsys, "sdepth", instance_text=_band_text(7, 2, 5))
    assert code == 0
    assert json.loads(out)["sdepth"] == 3


def _spy_on_enumerate(monkeypatch) -> list[int]:
    """Replace enumerate_quotient wherever a package module holds it; return the call log."""
    calls: list[int] = []
    original = poset_module.enumerate_quotient

    def spy(inst):
        calls.append(inst.n)
        return original(inst)

    patch_everywhere(monkeypatch, original, spy)
    return calls


@pytest.mark.parametrize("op", ["sdepth", "depth", "analyze", "bounds", "strands", "scan"])
def test_cli_op_enumerates_the_poset_once(tmp_path, capsys, monkeypatch, op):
    assert not hasattr(poset_module.enumerate_quotient, "cache_info")
    calls = _spy_on_enumerate(monkeypatch)
    if op == "scan":
        # Once per generated instance.
        for n, count in ((4, 7), (6, 3)):
            calls.clear()
            code, _, _ = run_cli(tmp_path, capsys, "scan", "--n", str(n), "--count", str(count), "--seed", "1")
            assert code == 0
            assert len(calls) == count, (n, count)
        return
    for text in (PAPER, PAPER_JPRIME, _band_text(6, 2, 5)):
        calls.clear()
        code, _, _ = run_cli(tmp_path, capsys, op, instance_text=text)
        assert code == 0
        assert len(calls) == 1, (op, text)


def test_core_functions_given_a_poset_do_not_enumerate(monkeypatch):
    posets = [enumerate_quotient(parse_instance(t)) for t in (PAPER, PAPER_JPRIME, _band_text(6, 2, 5))]
    calls = _spy_on_enumerate(monkeypatch)
    for poset in posets:
        inst = poset.instance
        depths = exact_depth_multi(poset, (RATIONALS, GF2))
        build_strand(poset, (1 << inst.n) - 1)
        check_base_drop(poset)
        check_alternating_drop(poset)
        check_principal_gap(poset)
        counting_certificates(poset)
        check_layer_sandwich(poset, RATIONALS, depths[RATIONALS])
        check_rank_split(poset, RATIONALS, depths[RATIONALS])
        check_rank_split(poset, GF2, depths[GF2])
        partition_exists(poset, inst.d)
        stanley_depth(poset)
    assert calls == []


# k = 3 passes the counting quotas here and is rejected by the search itself.
SEARCH_REJECTS_3 = '{"n":4,"I":[[1],[2],[4]],"J":[[1,2,3]]}'


def test_core_functions_given_a_poset_build_no_monomials(monkeypatch):
    instances = [parse_instance(t) for t in (PAPER, PAPER_JPRIME, _band_text(6, 2, 5), SEARCH_REJECTS_3)]
    built: list[int] = []
    post_init = Monomial.__post_init__

    def spy(self):
        built.append(self.mask)
        post_init(self)

    monkeypatch.setattr(Monomial, "__post_init__", spy)
    for inst in instances:
        poset = enumerate_quotient(inst)
        depths = exact_depth_multi(poset, (RATIONALS, GF2, GF3))
        build_strand(poset, (1 << inst.n) - 1)
        counting_certificates(poset)
        for field, depth in depths.items():
            check_rank_split(poset, field, depth)
            check_rank_split(enumerate_quotient(inst), field, depth)
    assert partition_exists(enumerate_quotient(instances[-1]), 3) is None
    assert built == []


def test_cli_calls_in_one_process_parse_independently(tmp_path, capsys):
    runs = [("gf:2", "gf:3"), ("q",), (), ("gf:3",)]
    depths = []
    for fields in runs:
        argv = ["depth"] + [arg for f in fields for arg in ("--field", f)]
        code, out, _ = run_cli(tmp_path, capsys, *argv, instance_text=PAPER)
        assert code == 0
        depths.append(json.loads(out)["depth"])
    assert depths == [{"gf:2": 3, "gf:3": 3}, {"q": 3}, {"q": 3}, {"gf:3": 3}]


@pytest.mark.parametrize(
    "argv, content",
    [
        (["analyze"], b'{"n": 1, "I": [[1]], "J": []}\xff'),
        (["depth"], b"[" * 200000),
        (["scan", "--n", "4", "--count", "-2"], None),
        (["scan", "--n", "21", "--count", "1"], None),
        (["strands", "--multidegree", ""], PAPER.encode()),
        (["strands", "--multidegree", ","], PAPER.encode()),
        (["strands", "--multidegree", "1,,3"], PAPER.encode()),
        (["strands", "--multidegree", "1_0"], b'{"n": 10, "I": [[1]], "J": []}'),
        (["strands", "--multidegree", "+1,3"], PAPER.encode()),
        (["depth", "--field", "gf:3_1"], PAPER.encode()),
        (["depth", "--field", "gf:+3"], PAPER.encode()),
        (["depth", "--field", "gf: 3"], PAPER.encode()),
        (["depth", "--field", "gf:\u0663"], PAPER.encode()),
        (["depth", "--field", "gf:03"], PAPER.encode()),
        (["depth", "--field", "gf:003"], PAPER.encode()),
        (["depth", "--field", "gf:02"], PAPER.encode()),
        (["analyze", "--max-sdepth-poset", "-1"], PAPER.encode()),
        (["scan", "--n", "4", "--max-sdepth-poset", "-1"], None),
    ],
    ids=[
        "not-utf8", "nested-too-deeply", "negative-count", "n-past-limit",
        "multidegree-empty", "multidegree-only-comma", "multidegree-empty-part",
        "multidegree-underscore", "multidegree-sign", "field-underscore", "field-sign", "field-space",
        "field-non-ascii-digit", "field-leading-zero", "field-leading-zeros", "field-leading-zero-2",
        "negative-sdepth-cap", "scan-negative-sdepth-cap",
    ],
)
def test_cli_rejects_outside_input_with_exit_2(tmp_path, capsys, argv, content):
    args = list(argv)
    if content is not None:
        path = tmp_path / "instance.json"
        path.write_bytes(content)
        args.append(str(path))
    start = time.perf_counter()
    code = main(args)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert time.perf_counter() - start < 5


def test_cli_rejects_a_field_size_past_the_limit_at_once(tmp_path, capsys):
    # Trial division up to sqrt(p) would take minutes on a prime near 10^18.
    start = time.perf_counter()
    code, _, err = run_cli(tmp_path, capsys, "depth", "--field", "gf:1000000000000000003", instance_text=PAPER)
    assert code == 2
    assert "2^31" in err
    assert time.perf_counter() - start < 5
    code, out, _ = run_cli(tmp_path, capsys, "depth", "--field", "gf:2147483647", instance_text=PAPER)
    assert code == 0
    assert json.loads(out)["depth"] == {"gf:2147483647": 3}


@st.composite
def instance_documents(draw):
    """Instance documents with n <= 6, most of them valid.

    J's generators are mostly multiples of I's, but J may also be empty, hold
    a generator of I itself, or reach outside I; either list may repeat a
    generator.
    """
    n = draw(st.integers(1, 6))
    support = st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
    gens_i = draw(st.lists(support, min_size=1, max_size=5))
    gens_j = [
        sorted(set(draw(st.sampled_from(gens_i))) | set(draw(support)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    gens_j += draw(st.lists(support, max_size=1))
    gens_i += draw(st.lists(st.sampled_from(gens_i), max_size=2))
    if gens_j:
        gens_j += draw(st.lists(st.sampled_from(gens_j), max_size=2))
    return {"n": n, "I": gens_i, "J": gens_j}


CLI_COMMANDS = (
    ("analyze",),
    ("analyze", "--field", "q", "--field", "gf:2", "--field", "gf:3"),
    ("depth", "--field", "q", "--field", "gf:2"),
    ("bounds",),
    ("sdepth",),
    ("strands",),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    doc=instance_documents(),
    multidegree=st.lists(st.integers(1, 6), max_size=6, unique=True),
    scan=st.tuples(st.integers(1, 6), st.integers(0, 5), st.integers(), st.integers(-1, 50)),
    cap=st.integers(-2, 50),
)
def test_cli_fuzz_exits_0_with_json_or_2_with_an_error(tmp_path_factory, doc, multidegree, scan, cap):
    # A scan draws valid instances only, so it must exit 0 with one JSON object,
    # unless its Stanley cap is negative, which is bad input.
    scan_argv = ["scan", *(f"--{opt}={v}" for opt, v in zip(("n", "count", "seed", "max-sdepth-poset"), scan))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(scan_argv)
    if scan[3] < 0:
        assert (code, out.getvalue()) == (2, ""), scan_argv
        assert err.getvalue().startswith("error: "), scan_argv
    else:
        assert code == 0, scan_argv
        assert out.getvalue().count("\n") == 1, scan_argv
        assert isinstance(json.loads(out.getvalue()), dict), scan_argv
    path = tmp_path_factory.mktemp("fuzz") / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    strands_at = ("strands", "--multidegree", ",".join(map(str, multidegree)))
    capped = ("analyze", "--max-sdepth-poset", str(cap))
    for argv in CLI_COMMANDS + (strands_at, capped):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
        if argv is capped and cap < 0:
            assert code == 2, (argv, doc)
        if code == 0:
            assert isinstance(json.loads(out.getvalue()), dict), (argv, doc)
        else:
            assert code == 2, (argv, doc, err.getvalue())
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: "), (argv, doc)
