"""CLI dispatch, instance file format, and report serialization."""

from __future__ import annotations

import importlib
import itertools
import json
import pkgutil
import random
import time

import pytest

import sqfdepth
import sqfdepth.poset as poset_module
from sqfdepth import (
    GF2,
    RATIONALS,
    Monomial,
    ValidationError,
    build_strand,
    check_alternating_drop,
    check_base_drop,
    check_layer_sandwich,
    check_principal_gap,
    check_rank_split,
    counting_certificates,
    enumerate_quotient,
    exact_depth_multi,
    parse_instance,
    partition_exists,
    random_instance,
    stanley_depth,
    validate_pair,
    verify_partition,
)
from sqfdepth.cli import main
from sqfdepth.generate import default_params
from sqfdepth.stanley import Interval, IntervalPartition

from oracles import GF3, serialize_instance

PAPER = '{"n":4,"I":[[1],[3]],"J":[[1,4]]}'
PAPER_JPRIME = '{"n":4,"I":[[1],[3]],"J":[[1,4],[2,3,4]]}'


def mono(n, *indices):
    return Monomial.from_support(n, indices)


def test_parse_instance_paper():
    inst = parse_instance(PAPER)
    assert inst.n == 4
    assert [g.support for g in inst.ideal_i.generators] == [(1,), (3,)]
    assert [g.support for g in inst.ideal_j.generators] == [(1, 4)]


def test_parse_instance_jprime():
    inst = parse_instance(PAPER_JPRIME)
    assert [g.support for g in inst.ideal_j.generators] == [(1, 4), (2, 3, 4)]


def test_parse_instance_errors():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_instance('{"n":2,"I":[[1,1]],"J":[]}')
    with pytest.raises(ValidationError, match="out of range"):
        parse_instance('{"n":2,"I":[[3]],"J":[]}')
    with pytest.raises(ValidationError, match="invalid JSON"):
        parse_instance("{nope")
    with pytest.raises(ValidationError, match="missing key"):
        parse_instance('{"n":2,"I":[[1]]}')
    with pytest.raises(ValidationError, match="positive integer"):
        parse_instance('{"n":0,"I":[[1]],"J":[]}')
    with pytest.raises(ValidationError):
        parse_instance('{"n":4,"I":[[1],[3]],"J":[[2,4]]}')


def test_serialize_roundtrip_on_fuzz():
    rng = random.Random(3)
    for n in (3, 4, 5, 6):
        params = default_params(n)
        for _ in range(20):
            inst = random_instance(params, rng)
            assert parse_instance(serialize_instance(inst)) == inst


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


def test_cli_analyze_pretty_goes_to_stderr(tmp_path, capsys):
    code, out, err = run_cli(tmp_path, capsys, "--pretty", "analyze", instance_text=PAPER)
    assert code == 0
    json.loads(out)
    assert "depth" in err


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
    code, out, _ = run_cli(
        tmp_path, capsys, "strands", "--multidegree", "1,2,3,4", instance_text=PAPER
    )
    assert code == 0
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

    for info in pkgutil.iter_modules(sqfdepth.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"sqfdepth.{info.name}")
        if getattr(module, "enumerate_quotient", None) is original:
            monkeypatch.setattr(module, "enumerate_quotient", spy)
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
        ranks = {}
        depths = exact_depth_multi(poset, (RATIONALS, GF2), ranks)
        build_strand(poset, (1 << inst.n) - 1)
        check_base_drop(poset)
        check_alternating_drop(poset)
        check_principal_gap(poset)
        counting_certificates(poset)
        check_layer_sandwich(poset, depths[RATIONALS])
        check_rank_split(poset, RATIONALS, depths[RATIONALS], ranks)
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
        ranks = {}
        depths = exact_depth_multi(poset, (RATIONALS, GF2, GF3), ranks)
        build_strand(poset, (1 << inst.n) - 1)
        counting_certificates(poset)
        for field, depth in depths.items():
            check_rank_split(poset, field, depth, ranks)
            check_rank_split(poset, field, depth)
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
    ],
    ids=["not-utf8", "nested-too-deeply", "negative-count", "n-past-limit"],
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
