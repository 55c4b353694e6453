"""End-to-end tests for the command-line interface.

Commands run in-process through main(argv); exit statuses follow the
contract 0 = yes, 1 = no, 2 = unknown, 3 = error.
"""

import contextlib
import csv
import io
import json
import math
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from electctl import Problem, TieRule, VotingRule
from electctl.cli import EXIT_ERROR, EXIT_NO, EXIT_UNKNOWN, EXIT_YES, REDUCTIONS, main
from electctl.generate import random_instance
from electctl.instance_io import FORMAT, MAX_BALLOTS, instance_to_dict, parse_instance
from electctl.two_stage import TAKES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_instance(tmp_path, capsys, name, seed="1"):
    # seed 1 produces a yes-instance for CCEPV/plurality/TE with 3x5
    path = tmp_path / name
    code, _, _ = run(capsys, "gen", "--problem", "CCEPV", "--rule", "plurality",
                     "--tie", "TE", "--candidates", "3", "--voters", "5",
                     "--seed", seed, "--out", str(path))
    assert code == EXIT_YES
    return path


def plurality_doc(**fields):
    doc = {"format": FORMAT, "problem": "CCEPV", "rule": "plurality", "tie": "TE",
           "p": "p", "candidates": [{"id": "p"}, {"id": "a"}],
           "ballots": [{"order": ["p", "a"]}, {"order": ["a", "p"]}]}
    doc.update(fields)
    return {key: value for key, value in doc.items() if value is not None}


def voter_witness(parts):
    return {"format": FORMAT, "witness": {"type": "voter_partition", "parts": parts}}


# Valid JSON nested deeper than the parser's recursion limit.
NESTED_TOO_DEEPLY = "[" * 100_000 + "]" * 100_000


def document_text(doc):
    # A string is a document's raw text; anything else is dumped as JSON.
    return doc if isinstance(doc, str) else json.dumps(doc)


MALFORMED_INSTANCES = {
    "ballot-is-string": plurality_doc(ballots=["pa"]),
    "order-is-number": plurality_doc(ballots=[{"order": 5}]),
    "order-holds-a-list": plurality_doc(ballots=[{"order": ["p", ["a"]]}]),
    "k-is-string": plurality_doc(problem="CCPkV", k="3"),
    "limit-is-string": plurality_doc(problem="CCDVG", tie=None, limit="1", ballots=[
        {"order": ["p", "a"], "group": "A"}]),
    "candidates-is-string": plurality_doc(candidates="pa"),
    "approval-under-plurality": plurality_doc(
        ballots=[{"approve": ["p"]}, {"approve": ["a"]}]),
    "approval-pool-under-plurality": plurality_doc(
        problem="CCAVG", tie=None, limit=1, ballots=[],
        pool=[{"approve": ["p"], "group": "A"}]),
    "avg-label-on-main-ballot": plurality_doc(
        problem="CCAVG", tie=None, limit=1,
        ballots=[{"order": ["p", "a"], "group": "X"}, {"order": ["a", "p"]}],
        pool=[{"order": ["p", "a"], "group": "A"}]),
    "nested-too-deeply": NESTED_TOO_DEEPLY,
    # Equal ballots share one checked Ballot: a bad entry that looks like
    # an earlier valid one must still be caught.
    "order-is-string-after-equal-list": plurality_doc(
        ballots=[{"order": ["p", "a"]}, {"order": "pa"}]),
    "order-is-object-after-equal-list": plurality_doc(
        ballots=[{"order": ["p", "a"]}, {"order": {"p": 1, "a": 2}}]),
    "approval-after-equal-order-under-plurality": plurality_doc(
        ballots=[{"order": ["p", "a"]}, {"approve": ["p", "a"]}]),
    "group-is-number-after-equal-ballot": plurality_doc(
        problem="CCPVG", ballots=[{"order": ["p", "a"], "group": "A"},
                                  {"order": ["p", "a"], "group": 5}]),
}
MALFORMED_WITNESSES = {
    "parts-is-number": voter_witness(5),
    "part-holds-a-string": voter_witness([[0, "x"], [1]]),
    "parts-hold-strings": voter_witness([["0"], ["1"]]),
    "c1-is-number": {"format": FORMAT, "witness": {
        "type": "candidate_partition", "c1": 5, "c2": ["a"]}},
    "groups-is-number": {"format": FORMAT, "witness": {
        "type": "group_selection", "groups": 7}},
    "witness-nested-too-deeply": NESTED_TOO_DEEPLY,
}


@pytest.mark.parametrize("name", [*MALFORMED_INSTANCES, *MALFORMED_WITNESSES])
def test_malformed_document_exits_three(tmp_path, capsys, name):
    # A malformed document is an error (exit 3, one line on stderr), never
    # a traceback or a "no".
    inst_path, wit_path = tmp_path / "inst.json", tmp_path / "witness.json"
    # The oracle takes every problem, so no instance exits 3 for want of a
    # polynomial solver.
    if name in MALFORMED_INSTANCES:
        inst_path.write_text(document_text(MALFORMED_INSTANCES[name]))
        argv = ("solve", "--solver", "oracle", str(inst_path))
    else:
        inst_path.write_text(json.dumps(plurality_doc()))
        wit_path.write_text(document_text(MALFORMED_WITNESSES[name]))
        argv = ("verify", str(inst_path), str(wit_path))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("electctl: error:") and err.count("\n") == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10**12) | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.sampled_from(["p", "c1", "G1", FORMAT, "CCPVG", "TE"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8)
DOCUMENT_KEYS = ["format", "problem", "rule", "tie", "p", "k", "limit", "candidates",
                 "ballots", "pool", "id", "special", "order", "approve", "count", "group"]


@st.composite
def fuzzed_documents(draw):
    """A JSON-like value, or a generated instance's document with a few of
    its fields, or its ballots' and candidates' fields, dropped or replaced."""
    if draw(st.integers(0, 3)) == 0:
        return draw(JSON_VALUES)
    problem = draw(st.sampled_from(list(Problem)))
    takes = TAKES[problem]
    doc = instance_to_dict(random_instance(
        random.Random(draw(st.integers(0, 99))), problem,
        draw(st.sampled_from(list(VotingRule))),
        draw(st.sampled_from(list(TieRule))) if "tie" in takes else None,
        n_candidates=draw(st.integers(1, 3)), n_voters=draw(st.integers(0, 4)),
        k=2 if "k" in takes else None, limit=1 if "limit" in takes else None,
        pool_size=2 if "pool" in takes else None))
    for _ in range(draw(st.integers(0, 3))):
        target = doc
        entries = [e for key in ("candidates", "ballots", "pool")
                   if isinstance(doc.get(key), list) for e in doc[key] if isinstance(e, dict)]
        if entries and draw(st.booleans()):
            target = draw(st.sampled_from(entries))
        key = draw(st.sampled_from(DOCUMENT_KEYS))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=fuzzed_documents(), oracle=st.booleans())
def test_any_document_keeps_the_exit_contract(tmp_path, doc, oracle):
    # Exit 0, 1 or 2 only for a document that parses; anything else is
    # exit 3 with a message, never a traceback.
    text = json.dumps(doc)
    path = tmp_path / "fuzz.json"
    path.write_text(text)
    argv = ["solve", str(path)] + (["--solver", "oracle", "--budget", "3"] if oracle else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_YES, EXIT_NO, EXIT_UNKNOWN, EXIT_ERROR)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_ERROR:
        assert err.getvalue().startswith("electctl: error:")
    else:
        parse_instance(text)


def cvc_source(**fields):
    doc = {"format": FORMAT, "vertices": ["u1", "u2", "u3", "u4"],
           "edges": [["u1", "u2"], ["u1", "u3"], ["u1", "u4"],
                     ["u2", "u3"], ["u2", "u4"], ["u3", "u4"]], "k": 3}
    doc.update(fields)
    return {key: value for key, value in doc.items() if value is not None}


def x3c_source(**fields):
    doc = {"format": FORMAT, "base": ["b1", "b2", "b3", "b4", "b5", "b6"],
           "triples": [["b1", "b2", "b3"], ["b4", "b5", "b6"],
                       ["b1", "b2", "b4"], ["b1", "b5", "b6"]]}
    doc.update(fields)
    return doc


# name: (reduction, source document, the field the message must name, if any)
MALFORMED_SOURCES = {
    "edges-is-number": ("cvc", cvc_source(edges=5), "edges"),
    "edges-missing": ("cvc", cvc_source(edges=None), "edges"),
    "k-is-string": ("cvc", cvc_source(k="3"), "k"),
    "k-is-bool": ("cvc", cvc_source(k=True), "k"),
    "base-is-number": ("x3c", x3c_source(base=5), "base"),
    "triple-is-string": ("x3c", x3c_source(
        base=["a", "b", "c", "d", "e", "f"], triples=["abc", "def", "abd", "aef"]),
        "triples"),
    "nested-too-deeply": ("cvc", NESTED_TOO_DEEPLY, None),
}


@pytest.mark.parametrize("name", MALFORMED_SOURCES)
def test_malformed_reduce_source_exits_three(tmp_path, capsys, name):
    kind, doc, field = MALFORMED_SOURCES[name]
    src = tmp_path / "source.json"
    src.write_text(document_text(doc))
    code, out, err = run(capsys, "reduce", kind, str(src))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("electctl: error:") and err.count("\n") == 1
    if field is not None:
        assert f'"{field}"' in err


GEN_CCEPV = ("gen", "--problem", "CCEPV", "--rule", "plurality", "--tie", "TE")
IMPOSSIBLE_SIZES = {
    "gen-no-candidates": GEN_CCEPV + ("--candidates", "0"),
    "gen-negative-voters": GEN_CCEPV + ("--voters", "-3"),
    "gen-too-many-candidates": GEN_CCEPV + ("--candidates", "1001", "--voters", "2"),
    "gen-negative-pool": ("gen", "--problem", "CCAVG", "--rule", "plurality",
                          "--limit", "1", "--pool-size", "-1"),
    "gen-no-groups": ("gen", "--problem", "CCPVG", "--rule", "plurality",
                      "--tie", "TE", "--groups", "0"),
    "sweep-negative-voters": ("sweep", "ccepv", "--voters", "-1", "--count", "1"),
    "sweep-negative-budget": ("sweep", "ccepv", "--budget", "-1", "--count", "1"),
    "sweep-negative-count": ("sweep", "ccepv", "--count", "-3"),
    "gen-k-over-the-ballot-limit": ("gen", "--problem", "CCPkV", "--rule", "plurality",
                                    "--tie", "TE", "--k", str(MAX_BALLOTS + 1)),
    "sweep-k-over-the-ballot-limit": ("sweep", "ccpkv", "--k", str(MAX_BALLOTS + 1),
                                      "--count", "1"),
    # The reader would reject these documents; none is drawn.
    "gen-voters-over-the-ballot-limit": ("gen", "--problem", "CCPV", "--rule", "plurality",
                                         "--tie", "TE", "--candidates", "2",
                                         "--voters", str(MAX_BALLOTS + 1)),
    "gen-pool-over-the-ballot-limit": ("gen", "--problem", "CCAVG", "--rule", "plurality",
                                       "--limit", "1", "--voters", str(MAX_BALLOTS // 2),
                                       "--pool-size", str(MAX_BALLOTS // 2 + 1)),
    "sweep-voters-over-the-ballot-limit": ("sweep", "ccepv", "--voters", str(MAX_BALLOTS + 1),
                                           "--count", "1"),
}


@pytest.mark.parametrize("name", IMPOSSIBLE_SIZES)
def test_impossible_sizes_exit_three(tmp_path, capsys, name):
    out_path = tmp_path / "out"
    start = time.perf_counter()
    code, out, err = run(capsys, *IMPOSSIBLE_SIZES[name], "--out", str(out_path))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("electctl: error:") and err.count("\n") == 1
    assert not out_path.exists()


def prism(n):
    """The n-prism: two n-cycles joined by a matching, a cubic graph on 2n
    vertices."""
    edges = [[f"{side}{i}", f"{side}{(i + 1) % n}"] for side in "ab" for i in range(n)]
    edges += [[f"a{i}", f"b{i}"] for i in range(n)]
    return {"format": FORMAT, "vertices": [f"{side}{i}" for side in "ab" for i in range(n)],
            "edges": edges, "k": 1}


def x3c_chain(size, count):
    """A base of ``size`` elements and ``count`` triples of consecutive ones."""
    base = [f"b{i}" for i in range(size)]
    return {"format": FORMAT, "base": base,
            "triples": [[base[(i + j) % size] for j in range(3)] for i in range(count)]}


# Sources whose reductions would list more than MAX_CANDIDATES candidates:
# 3 * 334 + 2 for the cubic graph, 4 + 999 for the exact cover.
OVERSIZED_SOURCES = {
    "cvc-334-vertices": ("cvc", prism(167)),
    "x3c-999-elements": ("x3c", x3c_chain(999, 335)),
}


@pytest.mark.parametrize("name", OVERSIZED_SOURCES)
def test_oversized_reduction_exits_three(tmp_path, capsys, name):
    kind, doc = OVERSIZED_SOURCES[name]
    src, out_path = tmp_path / "source.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "reduce", kind, str(src), "--out", str(out_path))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("electctl: error:") and err.count("\n") == 1
    assert "candidates" in err
    assert not out_path.exists()


class TestSolve:
    def test_solve_reports_answer_and_digest(self, tmp_path, capsys):
        path = gen_instance(tmp_path, capsys, "inst.json")
        code, out, _ = run(capsys, "solve", str(path))
        record = json.loads(out)
        assert code in (EXIT_YES, EXIT_NO)
        assert record["format"] == FORMAT
        assert record["answer"] in ("yes", "no")
        assert (code == EXIT_YES) == (record["answer"] == "yes")
        assert len(record["instance_digest"]) == 64

    def test_solver_backends_agree(self, tmp_path, capsys):
        path = gen_instance(tmp_path, capsys, "inst.json")
        code_p, out_p, _ = run(capsys, "solve", str(path), "--solver", "poly")
        code_o, out_o, _ = run(capsys, "solve", str(path), "--solver", "oracle")
        assert code_p == code_o
        assert json.loads(out_p)["answer"] == json.loads(out_o)["answer"]

    def test_tiny_budget_yields_unknown(self, tmp_path, capsys):
        path = gen_instance(tmp_path, capsys, "inst.json")
        code, out, _ = run(capsys, "solve", str(path), "--solver", "oracle",
                           "--budget", "0")
        assert code == EXIT_UNKNOWN
        assert json.loads(out)["answer"] == "unknown"

    @pytest.mark.parametrize("solver", ["oracle", "poly"])
    def test_negative_budget_exits_three(self, tmp_path, capsys, solver):
        path = gen_instance(tmp_path, capsys, "inst.json")
        code, out, err = run(capsys, "solve", str(path), "--solver", solver,
                             "--budget", "-5")
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("electctl: error:") and err.count("\n") == 1
        assert "--budget" in err

    def test_calls_in_one_process_share_no_state(self, tmp_path, capsys):
        # The parser is built once per process; each call still starts from
        # the defaults.
        path = gen_instance(tmp_path, capsys, "inst.json")
        code, out, _ = run(capsys, "solve", str(path), "--solver", "oracle", "--budget", "0")
        assert code == EXIT_UNKNOWN
        code, out, _ = run(capsys, "solve", str(path))
        assert json.loads(out)["solver"] == "poly"
        code, out, _ = run(capsys, "solve", str(path), "--solver", "oracle")
        record = json.loads(out)
        assert record["solver"] == "oracle" and record["answer"] != "unknown"

    def test_deep_k_partition_enumeration_stops_at_the_budget(self, tmp_path, capsys):
        # 1,500 voters: far deeper than Python's recursion limit.
        path = tmp_path / "ccpkv.json"
        path.write_text(json.dumps(plurality_doc(
            problem="CCPkV", k=2, ballots=[{"order": ["a", "p"], "count": 1500}])))
        code, out, _ = run(capsys, "solve", str(path), "--solver", "oracle",
                           "--budget", "10")
        assert code == EXIT_UNKNOWN
        assert json.loads(out)["answer"] == "unknown"

    def test_missing_file_is_an_error(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent.json")
        assert code == EXIT_ERROR
        assert "error" in err

    def test_oversized_ballot_count_exits_three(self, tmp_path, capsys):
        # Rejected from the counts alone, before any ballot is built.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "format": FORMAT, "problem": "CCEPV", "rule": "plurality",
            "tie": "TE", "p": "p", "candidates": [{"id": "p"}, {"id": "a"}],
            "ballots": [{"order": ["p", "a"], "count": 10 ** 12}]}))
        code, out, err = run(capsys, "solve", str(path))
        assert code == EXIT_ERROR
        assert out == ""
        assert "limit" in err

    @pytest.mark.parametrize("k", [MAX_BALLOTS + 1, 10 ** 8])
    @pytest.mark.parametrize("solver", ["oracle", "poly"])
    def test_k_over_the_ballot_limit_exits_three(self, tmp_path, capsys, solver, k):
        # Rejected on reading, before either solver builds a part.
        path = tmp_path / "ccpkv.json"
        path.write_text(json.dumps(plurality_doc(
            problem="CCPkV", k=k, ballots=[{"order": ["p", "a"], "count": 3}])))
        code, out, err = run(capsys, "solve", str(path), "--solver", solver)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("electctl: error:") and err.count("\n") == 1
        assert "limit" in err

    @staticmethod
    def three_ballots(tmp_path, k):
        # p tops one ballot and a two: "no" at every k.
        path = tmp_path / f"ccpkv-{k}.json"
        path.write_text(json.dumps(plurality_doc(
            problem="CCPkV", k=k,
            ballots=[{"order": ["p", "a"]}, {"order": ["a", "p"], "count": 2}])))
        return path

    @pytest.mark.parametrize("solver", ["poly", "oracle"])
    def test_a_million_parts_exit_no_within_a_second(self, tmp_path, capsys, solver):
        path = self.three_ballots(tmp_path, 10 ** 6)
        start = time.perf_counter()
        code, out, _ = run(capsys, "solve", str(path), "--solver", solver)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_NO
        # The oracle tries the 5 partitions of three ballots. Poly's count,
        # C(10^6 + 3, 4) (see below), is past 2^63 - 1, so it is left out.
        assert json.loads(out)["stats"] == ({"cases": 5} if solver == "oracle" else {})

    @pytest.mark.parametrize("k", [2, 40, 30_000])
    def test_poly_cases_are_the_closed_form_count(self, tmp_path, capsys, k):
        # score[p] = 1 times the multisets of k - 1 among the 5 guesses (p
        # wins 1, a wins 1 or 2, the empty part, p and a tie at 1).
        code, out, _ = run(capsys, "solve", str(self.three_ballots(tmp_path, k)))
        assert code == EXIT_NO
        assert json.loads(out)["stats"] == {"cases": math.comb(k + 3, 4)}

    def test_a_count_past_printable_ints_still_gives_a_record(self, tmp_path, capsys):
        # p tops 1,200 of 2,000 ballots, so it wins every final. At k = 10^5
        # the count has more digits than Python converts to a string by
        # default (4,300), so it is left out of the record.
        k, others = 10 ** 5, ["c1", "c2", "c3", "c4"]
        ballots = [{"order": ["p", *others], "count": 1200}] + [
            {"order": [c, "p", *(d for d in others if d != c)], "count": 200} for c in others]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(plurality_doc(
            problem="CCPkV", k=k, candidates=[{"id": c} for c in ["p", *others]],
            ballots=ballots)))
        # 2,000 wins, the empty part and 2,000 ties are 4,001 guesses per part.
        assert math.comb(4001 + k - 2, k - 1).bit_length() > 4300 * math.log2(10)
        code, out, _ = run(capsys, "solve", str(path))
        assert code == EXIT_YES
        record = json.loads(out)
        assert record["answer"] == "yes" and "cases" not in record["stats"]
        assert len(record["witness"]["parts"]) == k
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps({"format": FORMAT, "witness": record["witness"]}))
        code, out, _ = run(capsys, "verify", str(path), str(witness))
        assert (code, out.splitlines()[-1]) == (EXIT_YES, "accepted")

    def test_bad_usage_exits_three(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == EXIT_ERROR


class TestVerify:
    def test_witness_accept_and_reject(self, tmp_path, capsys):
        path = gen_instance(tmp_path, capsys, "inst.json")
        out_path = tmp_path / "result.json"
        code, _, _ = run(capsys, "solve", str(path), "--solver", "oracle",
                         "--out", str(out_path))
        record = json.loads(out_path.read_text())
        assert "witness" in record
        wit_path = tmp_path / "witness.json"
        wit_path.write_text(json.dumps(
            {"format": FORMAT, "witness": record["witness"]}))
        code, out, _ = run(capsys, "verify", str(path), str(wit_path))
        assert code == EXIT_YES
        assert "accepted" in out
        assert "final winners" in out

    def test_rejected_witness(self, tmp_path, capsys):
        path = gen_instance(tmp_path, capsys, "inst.json")
        wit_path = tmp_path / "witness.json"
        # all five ballots on one side: not an equipartition
        wit_path.write_text(json.dumps(
            {"format": FORMAT,
             "witness": {"type": "voter_partition",
                         "parts": [[0, 1, 2, 3, 4], []]}}))
        code, out, _ = run(capsys, "verify", str(path), str(wit_path))
        assert code == EXIT_NO
        assert "rejected" in out


class TestReduce:
    def test_cubic_vc_source(self, tmp_path, capsys):
        src = tmp_path / "k4.json"
        src.write_text(json.dumps({
            "format": FORMAT, "kind": "cvc",
            "vertices": ["u1", "u2", "u3", "u4"],
            "edges": [["u1", "u2"], ["u1", "u3"], ["u1", "u4"],
                      ["u2", "u3"], ["u2", "u4"], ["u3", "u4"]],
            "k": 3,
        }))
        out_path = tmp_path / "out.json"
        code, _, _ = run(capsys, "reduce", "cvc", str(src), "--out", str(out_path))
        assert code == EXIT_YES
        doc = json.loads(out_path.read_text())
        assert len(doc["candidates"]) == 18
        assert doc["provenance"]["reduction"] == "cvc"
        assert len(doc["provenance"]["source_sha256"]) == 64

    def test_x3c_source(self, tmp_path, capsys):
        src = tmp_path / "x3c.json"
        src.write_text(json.dumps({
            "format": FORMAT, "kind": "x3c",
            "base": ["b1", "b2", "b3", "b4", "b5", "b6"],
            "triples": [["b1", "b2", "b3"], ["b4", "b5", "b6"],
                        ["b1", "b2", "b4"], ["b1", "b5", "b6"]],
        }))
        code, out, _ = run(capsys, "reduce", "x3c", str(src))
        assert code == EXIT_YES
        doc = json.loads(out)
        groups = {b["group"] for b in doc["ballots"]}
        assert len(groups) == 4 + 3

    def test_approval_source(self, tmp_path, capsys):
        src = tmp_path / "appr.json"
        src.write_text(json.dumps({
            "format": FORMAT, "kind": "approval-e",
            "problem": "CCPV", "rule": "approval", "tie": "TE", "p": "p",
            "candidates": [{"id": "p"}, {"id": "a"}],
            "ballots": [{"approve": ["p"]}, {"approve": ["a"]},
                        {"approve": ["a"]}, {"approve": ["p", "a"]}],
        }))
        code, out, _ = run(capsys, "reduce", "approval-e", str(src))
        assert code == EXIT_YES
        doc = json.loads(out)
        assert doc["rule"] == "systemE"
        assert len(doc["ballots"]) == 6

    @pytest.mark.parametrize("kind,doc", [
        *(("cvc", cvc_source(k=k)) for k in (1, 3, 4)),
        *(("cvc", dict(prism(n), k=k)) for n, k in ((3, 1), (3, 6), (4, 5))),
        ("x3c", x3c_source()),
        *(("x3c", x3c_chain(size, count)) for size, count in ((6, 4), (9, 5), (12, 9))),
        *(("approval-e", plurality_doc(problem="CCPV", rule="approval", ballots=[
            {"approve": ["p"], "count": voters}])) for voters in (1, 2, 5, 8)),
    ])
    def test_size_bound_matches_the_reduction(self, tmp_path, capsys, kind, doc):
        # The sizes checked before a reduction runs are those it builds.
        src, out_path = tmp_path / "source.json", tmp_path / "out.json"
        src.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "reduce", kind, str(src), "--out", str(out_path))
        assert code == EXIT_YES
        reduced = parse_instance(out_path.read_text())
        read, _, sizes = REDUCTIONS[kind]
        assert sizes(read(doc)) == (len(reduced.profile.candidates),
                                    len(reduced.profile.ballots))

    def test_malformed_source(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"format": FORMAT, "kind": "cvc",
                                   "vertices": ["a", "b"],
                                   "edges": [["a", "b"]], "k": 1}))
        code, _, err = run(capsys, "reduce", "cvc", str(src))
        assert code == EXIT_ERROR
        assert "error" in err


class TestSweep:
    def sweep(self, tmp_path, capsys, name, *extra):
        out_path = tmp_path / name
        code, _, err = run(capsys, "sweep", "ccepv", "--candidates", "3",
                           "--voters", "5", "--count", "12", "--seed", "3",
                           "--out", str(out_path), *extra)
        return code, out_path, err

    def test_sweep_agreement_and_summary(self, tmp_path, capsys):
        code, out_path, err = self.sweep(tmp_path, capsys, "sweep.csv")
        assert code == EXIT_YES
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 12
        assert all(r["agree"] == "1" for r in rows)
        summary = json.loads(err.splitlines()[-1])
        assert summary["disagreements"] == 0
        assert summary["agreement_rate"] == 1.0

    def test_sweep_deterministic_modulo_timings(self, tmp_path, capsys):
        _, first, _ = self.sweep(tmp_path, capsys, "a.csv")
        _, second, _ = self.sweep(tmp_path, capsys, "b.csv")

        def strip_ms(path):
            rows = list(csv.DictReader(path.read_text().splitlines()))
            return [{k: v for k, v in r.items() if not k.startswith("ms_")}
                    for r in rows]

        assert strip_ms(first) == strip_ms(second)

    def test_unknown_family_is_an_error(self, capsys):
        code, _, err = run(capsys, "sweep", "nope", "--count", "1")
        assert code == EXIT_ERROR
        assert "unknown family" in err

    def test_ccpkv_family_needs_k(self, capsys):
        code, _, err = run(capsys, "sweep", "ccpkv", "--count", "1")
        assert code == EXIT_ERROR


class TestGen:
    def test_gen_is_deterministic(self, tmp_path, capsys):
        a = gen_instance(tmp_path, capsys, "a.json")
        b = gen_instance(tmp_path, capsys, "b.json")
        assert a.read_text() == b.read_text()

    def test_gen_validates_parameters(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--problem", "CCPkV", "--rule",
                           "plurality", "--tie", "TE", "--k", "1",
                           "--out", str(tmp_path / "x.json"))
        assert code == EXIT_ERROR

    def test_gen_group_problem(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        code, _, _ = run(capsys, "gen", "--problem", "CCDVG", "--rule",
                         "plurality", "--limit", "2", "--voters", "6",
                         "--groups", "3", "--seed", "1", "--out", str(path))
        assert code == EXIT_YES
        doc = json.loads(path.read_text())
        assert all("group" in b for b in doc["ballots"])

    @pytest.mark.parametrize("problem,sizes", [
        ("CCPVG", ("--tie", "TE", "--voters", "0")),
        ("CCDVG", ("--limit", "1", "--voters", "0")),
        ("CCAVG", ("--limit", "1", "--pool-size", "0")),
    ])
    def test_group_problem_without_ballots_solves(self, tmp_path, capsys, problem, sizes):
        # A group problem whose grouped ballots are empty has no groups; its
        # generated document must still read back and be decided.
        path = tmp_path / "g.json"
        code, _, _ = run(capsys, "gen", "--problem", problem, "--rule", "plurality",
                         *sizes, "--out", str(path))
        assert code == EXIT_YES
        code, out, err = run(capsys, "solve", "--solver", "oracle", str(path))
        assert code in (EXIT_YES, EXIT_NO), err
        assert json.loads(out)["answer"] in ("yes", "no")
