"""Tests of the benchmark's own reference checker, output checks and tracer.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import copy
import importlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import refcheck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from refcheck import RefInstance  # noqa: E402

# The modules as already imported; workloads.load_electctl() would import
# them afresh and leave other tests holding stale classes.
API = SimpleNamespace(**{m: importlib.import_module(f"electctl.{m}") for m in workloads.MODULES})


def lex(top, cands=("p", "a", "b")):
    return (top,) + tuple(sorted(c for c in cands if c != top))


# ------------------------------------------------------------ reference rules

def test_plurality_and_restriction():
    ballots = (("p", "a", "b"), ("p", "b", "a"), ("a", "p", "b"), ("b", "a", "p"))
    assert refcheck.winners("plurality", ("p", "a", "b"), ballots) == {"p"}
    # Restricted to {a, b}: the p ballots move to their second choices.
    assert refcheck.winners("plurality", ("a", "b"), ballots) == {"a", "b"}
    assert refcheck.winners("plurality", ("p", "a", "b"), ()) == {"p", "a", "b"}


def test_approval():
    ballots = (frozenset("pa"), frozenset("a"), frozenset())
    assert refcheck.winners("approval", ("p", "a", "b"), ballots) == {"a"}
    assert refcheck.winners("approval", ("p", "b"), ballots) == {"p"}


def test_condorcet_cycle_tie_and_degenerate_cases():
    cycle = (("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b"))
    for rule in ("condorcet", "weakCondorcet"):
        assert refcheck.winners(rule, ("a", "b", "c"), cycle) == frozenset()
    assert refcheck.winners("condorcet", ("a", "b"), cycle) == {"a"}
    split = (("a", "b"), ("b", "a"))
    assert refcheck.winners("condorcet", ("a", "b"), split) == frozenset()
    assert refcheck.winners("weakCondorcet", ("a", "b"), split) == {"a", "b"}
    assert refcheck.winners("condorcet", ("a", "b"), ()) == frozenset()
    assert refcheck.winners("weakCondorcet", ("a", "b"), ()) == {"a", "b"}
    assert refcheck.winners("condorcet", ("a",), split) == {"a"}


def test_system_e_branches():
    sp = {"s0": 0, "s1": 1, "s2": 2, "s3": 3}
    x2 = (frozenset("x"), frozenset("x"))
    assert refcheck.winners("systemE", ("s0", "s2", "x"), x2, sp) == {"x"}
    assert refcheck.winners("systemE", ("s0", "s1", "x"), x2, sp) == frozenset()
    full = ("s0", "s1", "s2", "s3", "x", "y")
    # Five voters: special 5 mod 4 = 1, and x is the unique approval winner.
    five = (frozenset("x"),) * 4 + (frozenset("y"),)
    assert refcheck.winners("systemE", full, five, sp) == {"s1", "x"}
    # Two voters tied between x and y: only the special s2.
    assert refcheck.winners("systemE", full, (frozenset("x"), frozenset("y")), sp) == {"s2"}
    assert refcheck.winners("systemE", full[1:], five, sp) == frozenset()


def worked_example():
    """14 voters: p tops 5, a tops 6, b tops 3; the rest in id order."""
    ballots = tuple(lex(t) for t in "p" * 5 + "a" * 6 + "b" * 3)
    return RefInstance("CCEPV", "plurality", "TE", ("p", "a", "b"), ballots, "p")


def test_two_stage_worked_example():
    inst = worked_example()
    # V1 = p x5 + a x2 elects p, V2 = a x4 + b x3 elects a, and a wins the final.
    naive = {"type": "voter_partition", "parts": [list(range(7)), list(range(7, 14))]}
    assert refcheck.two_stage_voters(inst, naive["parts"]) == {"a"}
    assert not refcheck.accepts(inst, naive)
    # V1 = p x4 + a x3 elects p; V2 = p + a x3 + b x3 ties a and b, so under TE
    # only p reaches the final.
    good = {"type": "voter_partition", "parts": [[0, 1, 2, 3, 5, 6, 7],
                                                 [4, 8, 9, 10, 11, 12, 13]]}
    assert refcheck.accepts(inst, good)
    tp = RefInstance("CCEPV", "plurality", "TP", inst.candidates, inst.ballots, "p")
    assert not refcheck.accepts(tp, good)      # TP promotes a and b as well


def test_candidate_partition_and_brute_force():
    ballots = (("a", "p", "b"), ("p", "b", "a"), ("b", "a", "p"))   # a > p > b > a
    inst = RefInstance("CCRPC", "condorcet", "TE", ("p", "a", "b"), ballots, "p")
    # {a, b} elects b, which p beats in the final.
    assert refcheck.accepts(inst, {"type": "candidate_partition", "c1": ["p"], "c2": ["a", "b"]})
    assert not refcheck.accepts(inst, {"type": "candidate_partition",
                                       "c1": ["p", "b"], "c2": ["a"]})
    assert refcheck.brute_force(inst) == "yes"
    lost = RefInstance("CCEPV", "plurality", "TE", ("p", "a"), (("a", "p"),) * 4, "p")
    assert refcheck.brute_force(lost) == "no"


def test_closed_form_counts_match_naive_enumeration():
    def unordered_splits(n, balanced):
        seen = set()
        for mask in range(1 << n):
            a = frozenset(i for i in range(n) if mask >> i & 1)
            b = frozenset(range(n)) - a
            if not balanced or abs(len(a) - len(b)) <= 1:
                seen.add(frozenset((a, b)))
        return len(seen)

    for n in range(1, 9):
        assert refcheck.count_bipartitions(n) == unordered_splits(n, False)
        assert refcheck.count_equipartitions(n) == unordered_splits(n, True)
    assert refcheck.count_equipartitions(0) == 1
    assert refcheck.count_k_partitions(3, 2) == 4
    assert refcheck.count_k_partitions(4, 3) == 1 + 7 + 6
    assert refcheck.count_k_partitions(7, 3) == 365


def test_source_brute_force():
    k4 = workloads.K4
    assert not refcheck.vertex_cover_exists(*k4, 2)
    assert refcheck.vertex_cover_exists(*k4, 3)
    base = tuple("123456")
    assert refcheck.exact_cover_exists(base, (("1", "2", "3"), ("4", "5", "6"), ("1", "4", "5")))
    assert not refcheck.exact_cover_exists(base, (("1", "2", "3"), ("1", "5", "6"), ("1", "4", "5")))


def test_counting_arguments():
    rng = random.Random(0)
    for kind in ("ccepv-no", "wcrpc-no", "ccpkv-no", "e-ccepv"):
        inst, planted = workloads._make_doc(rng, kind, 5, 60)
        assert planted is None and refcheck.no_by_count(inst) is not None, kind
    inst, planted = workloads._make_doc(rng, "ccepv-yes", 5, 60)
    assert refcheck.no_by_count(inst) is None and refcheck.accepts(inst, planted)


# ------------------------------------------------------------ checks reject corruption

def moved(witness):
    """The witness with one ballot or candidate moved to the other part."""
    w = copy.deepcopy(witness)
    if w["type"] == "voter_partition":
        w["parts"][1].append(w["parts"][0].pop())
    else:
        w["c2"].append(w["c1"].pop())
    return w


def sweep_record(answer):
    rng = random.Random(7)
    while True:
        s = rng.randrange(2 ** 31)
        inst = API.generate.family_instance(random.Random(s), "ccepv", 3, 6)
        poly = workloads.decision_record(API.solvers.solve_poly(inst))
        if poly["answer"] == answer:
            break
    orc = workloads.decision_record(API.oracle.oracle_solve(inst))
    digest = API.instance_io.instance_digest(inst)
    row = {"instance_digest": digest, "answer_poly": poly["answer"],
           "answer_oracle": orc["answer"], "agree": "1"}
    return {"label": "ccepv", "family": "ccepv", "plain": workloads.plain_instance(inst),
            "digest": digest, "out": {"exit": 0, "rows": [row]}, "poly": poly, "oracle": orc}


def test_sweep_check_rejects_corrupted_outputs():
    yes, no = sweep_record("yes"), sweep_record("no")
    assert workloads.check_sweep([yes, no]) == []

    r = copy.deepcopy(yes)
    r["poly"]["witness"] = r["oracle"]["witness"] = moved(yes["oracle"]["witness"])
    assert workloads.check_sweep([r])

    for rec, flip in ((yes, "no"), (no, "yes")):
        r = copy.deepcopy(rec)
        r["poly"]["answer"] = r["oracle"]["answer"] = flip
        row = r["out"]["rows"][0]
        row["answer_poly"] = row["answer_oracle"] = flip
        assert workloads.check_sweep([r])

    r = copy.deepcopy(no)
    r["oracle"]["cases"] = refcheck.count_witnesses(no["plain"]) + 1
    assert workloads.check_sweep([r])


def test_hardness_check_rejects_corrupted_outputs():
    g = API.reductions.CubicGraphVC(workloads.K4[0],
                                    tuple(frozenset(e) for e in workloads.K4[1]), 3)
    target = API.reductions.cubic_vc_to_weakcondorcet_ccrepc_tp(g)
    case = workloads.HardCase("vc", "vc/K4/k3", target,
                              {"vertices": workloads.K4[0], "edges": workloads.K4[1], "k": 3})
    out = workloads.decision_record(API.oracle.oracle_solve(target))
    record = {"case": case, "plain": workloads.plain_instance(target), "out": out}
    assert out["answer"] == "yes" and workloads.check_hardness([record]) == []

    for bad in ({"witness": moved(out["witness"])},
                {"answer": "no", "witness": None},
                {"cases": refcheck.count_witnesses(record["plain"]) + 1}):
        assert workloads.check_hardness([dict(record, out=dict(out, **bad))]), bad


def test_poly_large_check_rejects_corrupted_outputs():
    rng = random.Random(3)
    yes_plain, planted = workloads._make_doc(rng, "ccepv-yes", 5, 60)
    no_plain, _ = workloads._make_doc(rng, "ccepv-no", 5, 60)
    yes = {"case": workloads.DocCase("yes", "ccepv-yes", yes_plain, Path("y"), planted),
           "out": {"exit": 0, "answer": "yes", "witness": planted, "verify_exit": 0}}
    no = {"case": workloads.DocCase("no", "ccepv-no", no_plain, Path("n"), None),
          "out": {"exit": 1, "answer": "no", "witness": None}}
    assert workloads.check_poly_large([yes, no]) == []

    assert workloads.check_poly_large([dict(yes, out=dict(yes["out"], witness=moved(planted)))])
    assert workloads.check_poly_large([dict(yes, out={"exit": 1, "answer": "no"})])
    assert workloads.check_poly_large([dict(no, out={"exit": 0, "answer": "yes",
                                                     "witness": planted, "verify_exit": 0})])
    assert workloads.check_poly_large([dict(yes, out=dict(yes["out"], verify_exit=1))])


# ------------------------------------------------------------ tracer

def test_tracer_counts_and_restores():
    g = API.reductions.CubicGraphVC(workloads.K4[0],
                                    tuple(frozenset(e) for e in workloads.K4[1]), 1)
    target = API.reductions.cubic_vc_to_weakcondorcet_ccrepc_tp(g)
    original = API.oracle.oracle_solve
    tracer = tracing.Tracer(span_cap=10)
    tracer.install(API)
    try:
        assert API.oracle.oracle_solve is not original
        d = API.oracle.oracle_solve(target)
    finally:
        tracer.uninstall()
    assert API.oracle.oracle_solve is original
    metrics = tracer.per_layer(1)
    assert metrics["oracle.witnesses"][0] == d.stats["cases"] == 1716
    assert metrics["two_stage.replays"][0] == 1716
    assert metrics["oracle.accept_ratio"][0] == 0.0
    assert len(tracer.spans) == 10
    own = sum(tracer.self_time.values())
    assert 0 < own <= tracer.incl["oracle.oracle_solve"] * 1.0001
