"""Unit tests for the polynomial-time control solvers."""

import dataclasses
import itertools
import random
import signal
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electctl import (
    Candidate,
    ControlInstance,
    Problem,
    Profile,
    TieRule,
    UnsupportedInstance,
    VoterPartition,
    VotingRule,
    approval,
    linear,
    oracle_solve,
    solve_plurality_ccepv_te,
    solve_plurality_ccpkv_te,
    solve_poly,
    solve_system_e_ccepv_tp,
    solve_weakcondorcet_ccrpc_tp,
    verify_witness,
)
from electctl.generate import FAMILIES, family_instance
from electctl.instance_io import FORMAT, instance_from_dict
from electctl.solvers import (
    CASES_LIMIT,
    POLY_SOLVERS,
    _extend_to_equipartition,
    _multisets,
    _rank,
)
from pab import PAB, profile


def ccepv(prof):
    return ControlInstance(problem=Problem.CCEPV, rule=VotingRule.PLURALITY,
                           profile=prof, p="p", tie=TieRule.TE)


def ccpkv(prof, k):
    return ControlInstance(problem=Problem.CCPKV, rule=VotingRule.PLURALITY,
                           profile=prof, p="p", tie=TieRule.TE, k=k)


def reversed_candidates(prof):
    """The same election with its candidate list reversed, so p comes last."""
    return Profile(tuple(reversed(prof.candidates)), prof.ballots)


class TestEquipartitionSolver:
    def test_worked_example_is_yes_with_balanced_witness(self):
        inst = ccepv(profile(*(["p"] * 5 + ["a"] * 6 + ["b"] * 3)))
        d = solve_plurality_ccepv_te(inst)
        assert d.answer == "yes"
        assert abs(len(d.witness.parts[0]) - len(d.witness.parts[1])) <= 1
        assert verify_witness(inst, d.witness)

    def test_frozen_no_instances(self):
        # Answers frozen from the exhaustive-enumeration oracle.
        for tops in (("p", "a", "a", "b"), ("a", "a", "a", "p"),
                     ("p", "p", "a", "b", "b", "a")):
            assert solve_plurality_ccepv_te(ccepv(profile(*tops))).answer == "no"

    def test_frozen_yes_instance(self):
        inst = ccepv(profile("p", "p", "a", "a", "b"))
        d = solve_plurality_ccepv_te(inst)
        assert d.answer == "yes"
        assert verify_witness(inst, d.witness)

    def test_single_candidate_always_yes(self):
        solo = Profile((Candidate("p"),), (linear("p"), linear("p")))
        inst = ControlInstance(problem=Problem.CCEPV, rule=VotingRule.PLURALITY,
                               profile=solo, p="p", tie=TieRule.TE)
        d = solve_plurality_ccepv_te(inst)
        assert d.answer == "yes"
        assert verify_witness(inst, d.witness)

    def test_empty_electorate(self):
        inst = ccepv(Profile(PAB))
        d = solve_plurality_ccepv_te(inst)
        assert d.answer == oracle_solve(inst).answer == "no"

    def test_final_is_a_plurality_election_not_a_margin_lookup(self):
        # The p-versus-c final goes through final_round(); ``_standing``,
        # which holds the Condorcet family's nibble tables (built from the
        # standing masks), is never built for a plurality instance.
        for tops in (("p", "p", "a", "a", "b"), ("p", "a", "a", "b")):
            inst = ccepv(profile(*tops))
            solve_plurality_ccepv_te(inst)
            assert "_standing" not in inst.profile.__dict__

    def test_agrees_with_oracle_on_all_four_voter_profiles(self):
        for tops in itertools.product("pab", repeat=4):
            inst = ccepv(profile(*tops))
            d = solve_plurality_ccepv_te(inst)
            assert d.answer == oracle_solve(inst).answer, tops
            if d.answer == "yes":
                assert verify_witness(inst, d.witness), tops

    def test_agrees_with_oracle_on_random_instances(self):
        # Up to five candidates, so that conditions 1 and 3 meet free rivals
        # that V2 may tie; p is last in half of the candidate lists.
        rng = random.Random(11)
        for i in range(150):
            inst = family_instance(rng, "ccepv", rng.randint(3, 5), rng.randint(2, 8))
            if i % 2:
                inst = ccepv(reversed_candidates(inst.profile))
            d = solve_plurality_ccepv_te(inst)
            assert d.answer == oracle_solve(inst).answer, inst
            if d.answer == "yes":
                assert verify_witness(inst, d.witness), inst

    def test_rejects_other_instances(self):
        with pytest.raises(UnsupportedInstance):
            solve_plurality_ccepv_te(ccpkv(profile("p"), 2))


def test_equipartition_extension_meets_its_contract():
    # Against brute force over the V1 count vectors: the extension returns
    # parts iff some vector within every candidate's floor and ceiling sums
    # into [lo, hi], and then its parts hold such a vector, split every
    # class, and (with lo, hi = n // 2, (n + 1) // 2) differ by at most one.
    rng = random.Random(19)
    for _ in range(2000):
        score = [rng.randint(0, 8) for _ in range(rng.randint(2, 5))]
        n = sum(score)
        order = rng.sample(range(n), n)
        classes, start = [], 0
        for s in score:
            classes.append(sorted(order[start:start + s]))
            start += s
        pinned = {c: rng.randint(0, score[c]) for c in range(len(score)) if rng.random() < 0.4}
        kp, cap2 = rng.randint(1, 9), rng.randint(0, 8)
        if rng.random() < 0.5:
            lo, hi = n // 2, (n + 1) // 2
        else:
            lo = rng.randint(0, n)
            hi = rng.randint(lo, n)
        bounds = [(pinned[c], pinned[c]) if c in pinned else (max(0, s - cap2), min(s, kp - 1))
                  for c, s in enumerate(score)]
        feasible = any(lo <= sum(v) <= hi
                       for v in itertools.product(*(range(f, c + 1) for f, c in bounds)))
        parts = _extend_to_equipartition(classes, score, pinned, kp, cap2, lo, hi)
        case = (score, pinned, kp, cap2, lo, hi)
        assert (parts is not None) == feasible, case
        if parts:
            part1, part2 = parts
            assert sorted(part1 + part2) == list(range(n)), case
            assert lo <= len(part1) <= hi, case
            counts = [len(set(cls) & set(part1)) for cls in classes]
            assert all(f <= x <= c for x, (f, c) in zip(counts, bounds)), case


def digit_profile(m, orders):
    """Candidates p, c1, ..., c(m-1); each order a string of "p" and digits."""
    ids = ("p",) + tuple(f"c{i}" for i in range(1, m))
    return Profile(tuple(map(Candidate, ids)),
                   tuple(linear(*(ids[0 if x == "p" else int(x)] for x in o)) for o in orders))


def round_robin_no(m, p_tops, n):
    """p tops ``p_tops`` ballots and is last on the rest, whose tops cycle
    through c1, ..., c(m-1); every other candidate in position order."""
    ids = ("p",) + tuple(f"c{i}" for i in range(1, m))
    tops = ["p"] * p_tops + [ids[1 + i % (m - 1)] for i in range(n - p_tops)]
    return Profile(tuple(map(Candidate, ids)), tuple(
        linear(t, *(c for c in ids if c not in (t, "p")), *(() if t == "p" else ("p",)))
        for t in tops))


# (answer, V1, cases) of solve_plurality_ccepv_te, computed with a plain
# loop over every kc (each case counted, each failing kc tested); the
# closed-form skip of the failing kc must leave all three unchanged.
CCEPV_GOLDEN = {
    "yes-in-condition-1": (
        digit_profile(4, ["p231", "23p1", "2p31", "3p12", "123p", "p123", "3p21", "132p",
                          "21p3", "31p2", "32p1", "p231", "p123", "1p32", "p312", "p312",
                          "p321", "32p1", "p132", "p231", "32p1", "p321", "p231", "32p1",
                          "3p21", "p321", "32p1", "2p13", "p213"]),
        ("yes", (0, 1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 14, 15, 27), 144)),
    "yes-in-condition-2": (
        digit_profile(4, ["3p12", "32p1", "312p", "123p", "312p", "23p1", "p132", "p123",
                          "p321", "p132", "3p12", "3p21", "p213", "p132", "23p1", "p123",
                          "312p", "231p", "p132", "p123", "312p", "3p12", "312p", "213p",
                          "p321", "p213", "p321", "13p2"]),
        ("yes", (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 14, 17, 23), 77)),
    "yes-in-condition-3": (
        digit_profile(6, ["531p42", "p45123", "54132p", "421p53", "p52134", "p34521",
                          "4p1253", "5432p1", "35p124", "543p12", "534p12", "25p341",
                          "14325p", "53421p", "4p1532", "52431p", "p43512", "5p1234",
                          "412p53", "2541p3", "51p342", "2351p4", "1542p3", "3p4152",
                          "p25431", "21534p", "5p4123", "p34512", "4p3512"]),
        ("yes", (0, 1, 2, 4, 5, 7, 8, 9, 10, 11, 16, 19, 23, 24, 27), 276)),
    "no": (
        digit_profile(6, ["5134p2", "3521p4", "45231p", "521p43", "5231p4", "542p31",
                          "p24513", "25p431", "p32154", "p45213", "p23451", "5213p4",
                          "p32415", "135p24", "3p2451", "1p2354", "p34215", "43p512",
                          "5p1324", "5p3214", "3p1245", "p42315", "5p3124", "524p31",
                          "51p342", "12p453", "p32541", "51432p", "5312p4", "23415p"]),
        ("no", None, 352)),
    "no-by-counting": (round_robin_no(8, 5, 100), ("no", None, 1505)),
}


# (answer, V1, cases) of solve_plurality_ccepv_te on each CCEPV_GOLDEN
# election with its candidates reversed, computed with the solver that
# keyed candidates by id: a solver that mixes up positions and ids passes
# the goldens above, where p is first, but not these.
CCEPV_REVERSED_GOLDEN = {
    "yes-in-condition-1": ("yes", (0, 1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 14, 15, 27), 53),
    "yes-in-condition-2": ("yes", (0, 1, 2, 3, 5, 6, 7, 8, 9, 12, 14, 17, 23, 27), 77),
    "yes-in-condition-3": ("yes", (0, 1, 2, 4, 5, 7, 9, 10, 11, 12, 16, 19, 22, 24, 27), 90),
    "no": ("no", None, 352),
    "no-by-counting": ("no", None, 1505),
}


def check_equipartition_golden(prof, answer, v1, cases):
    inst = ccepv(prof)
    d = solve_plurality_ccepv_te(inst)
    assert (d.answer, d.stats["cases"]) == (answer, cases)
    if answer == "yes":
        n = len(prof.ballots)
        assert d.witness.parts == (v1, tuple(i for i in range(n) if i not in v1))
        assert verify_witness(inst, d.witness)


@pytest.mark.parametrize("name", CCEPV_GOLDEN)
def test_equipartition_solver_answer_witness_and_cases_are_pinned(name):
    prof, golden = CCEPV_GOLDEN[name]
    check_equipartition_golden(prof, *golden)


@pytest.mark.parametrize("name", CCEPV_REVERSED_GOLDEN)
def test_equipartition_solver_is_pinned_with_p_last(name):
    prof = reversed_candidates(CCEPV_GOLDEN[name][0])
    check_equipartition_golden(prof, *CCEPV_REVERSED_GOLDEN[name])


THOUSAND = ["p"] + [f"c{i}" for i in range(1, 1000)]

# CCEPV documents of 1,000 candidates, within every input bound, with the
# (answer, cases) that a walk over every (kp, kc) pair of conditions 1 and
# 3 and every kp of condition 2 gave; that walk took 10.4 s on the first
# and 29.8 s on the second (in process, on a 2-core shared host).
IN_BOUND_EXTREMES = {
    # 10^7 ballot entries, as many as a document may hold.
    "p-tops-one-counted-ballot": ([{"order": THOUSAND, "count": 10000}], ("yes", 5000)),
    "c1-tops-all-but-one": (
        [{"order": ["c1", "p", *THOUSAND[2:]], "count": 9999}, {"order": THOUSAND}],
        ("no", 498502)),
}


def in_bound_extreme(ballots):
    return instance_from_dict({"format": FORMAT, "problem": "CCEPV", "rule": "plurality",
                               "tie": "TE", "p": "p", "ballots": ballots,
                               "candidates": [{"id": c} for c in THOUSAND]})


@pytest.mark.parametrize("name", IN_BOUND_EXTREMES)
def test_equipartition_solver_decides_in_bound_extremes_quickly(name):
    ballots, golden = IN_BOUND_EXTREMES[name]
    inst = in_bound_extreme(ballots)

    def stop(signum, frame):
        raise RuntimeError("the solver ran past the alarm")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        d = solve_plurality_ccepv_te(inst)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (d.answer, d.stats["cases"]) == golden
    if d.answer == "yes":
        assert verify_witness(inst, d.witness)


def test_equipartition_no_past_kp0_is_counted_in_closed_form():
    # Here kp0 exceeds score[p], so no pair of condition 3 visits a kp and
    # its cases are a sum over the sorted rival scores, not 498,501 calls.
    ballots, golden = IN_BOUND_EXTREMES["c1-tops-all-but-one"]
    inst = in_bound_extreme(ballots)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        d = solve_plurality_ccepv_te(inst)
    finally:
        sys.setprofile(previous)
    assert (d.answer, d.stats["cases"]) == golden
    assert calls < 100_000


class TestKPartSolver:
    def test_frozen_cases(self):
        assert solve_plurality_ccpkv_te(ccpkv(profile("a", "a", "b", "p"), 2)).answer == "no"
        assert solve_plurality_ccpkv_te(ccpkv(profile("a", "a", "b", "p"), 3)).answer == "no"
        d = solve_plurality_ccpkv_te(ccpkv(profile("p", "p", "a", "a", "b"), 3))
        assert d.answer == "yes"
        assert len(d.witness.parts) == 3

    def test_witness_verifies(self):
        inst = ccpkv(profile("p", "p", "a", "a", "b"), 3)
        d = solve_plurality_ccpkv_te(inst)
        assert verify_witness(inst, d.witness)

    def test_agrees_with_oracle_k2_and_k3_on_four_voters(self):
        for tops in itertools.product("pab", repeat=4):
            for k in (2, 3):
                inst = ccpkv(profile(*tops), k)
                assert (solve_plurality_ccpkv_te(inst).answer
                        == oracle_solve(inst).answer), (tops, k)

    def test_k2_matches_classic_two_part_partition(self):
        for tops in itertools.product("pab", repeat=4):
            two = ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                                  profile=profile(*tops), p="p", tie=TieRule.TE)
            assert (solve_plurality_ccpkv_te(ccpkv(profile(*tops), 2)).answer
                    == oracle_solve(two).answer), tops

    def test_k_exceeding_voter_count(self):
        inst = ccpkv(profile("a", "p"), 4)
        assert solve_plurality_ccpkv_te(inst).answer == oracle_solve(inst).answer


def poly_large_shaped(seed, kind):
    """Five candidates and 1,000 ballots, as in the benchmark's CCPkV slots:
    for "no", c1 tops a majority and p five ballots; for "yes", p tops a
    majority. The other tops are drawn at random and the rest of each
    ballot shuffled."""
    rng = random.Random(seed)
    ids = ("p", "c1", "c2", "c3", "c4")
    if kind == "no":
        firsts, pool = ["c1"] * 501 + ["p"] * 5, ids[2:]
    else:
        firsts, pool = ["p"] * 501, ids[1:]
    firsts += [rng.choice(pool) for _ in range(1000 - len(firsts))]
    ballots = []
    for top in firsts:
        rest = [c for c in ids if c != top]
        rng.shuffle(rest)
        ballots.append(linear(top, *rest))
    rng.shuffle(ballots)
    return Profile(tuple(map(Candidate, ids)), tuple(ballots))


# (answer, witness parts, cases) of solve_plurality_ccpkv_te at k, computed
# with a loop that checks every multiset of guesses in order; the pruned
# walk and the closed-form count must leave all three unchanged.
CCPKV_GOLDEN = {
    "yes": (
        digit_profile(4, ["13p2", "p312", "23p1", "312p", "13p2", "3p12", "23p1"]), 5,
        ("yes", ((1,), (0,), (4,), (), (2, 3, 5, 6)), 1060)),
    "no": (
        digit_profile(4, ["132p", "132p", "p213", "p321", "132p", "p123", "p312", "123p"]), 4,
        ("no", None, 1820)),
    "yes-k-over-n": (
        digit_profile(4, ["321p", "3p12", "2p31", "p213", "1p32", "1p23", "3p12"]), 9,
        ("yes", ((3,), (0,), (1,), (), (), (), (), (2, 4), (5, 6)), 282332)),
    "no-k-over-n": (
        digit_profile(4, ["p312", "1p23", "p123", "1p23", "23p1", "12p3"]), 8,
        ("no", None, 38896)),
    "yes-empty-parts-before-a-tie": (
        digit_profile(4, ["231p", "p321", "1p32", "13p2", "2p13"]), 4,
        ("yes", ((1,), (), (), (0, 2, 3, 4)), 190)),
    "benchmark-shaped-no": (poly_large_shaped(1, "no"), 2, ("no", None, 9965)),
    "benchmark-shaped-yes": (
        poly_large_shaped(2, "yes"), 2, ("yes", ((0,), tuple(range(1, 1000))), 500)),
}


# (answer, witness parts, cases) on each CCPKV_GOLDEN election with its
# candidates reversed, computed as CCEPV_REVERSED_GOLDEN was.
CCPKV_REVERSED_GOLDEN = {
    "yes": ("yes", ((1,), (2,), (6,), (), (0, 3, 4, 5)), 1855),
    "no": ("no", None, 1820),
    "yes-k-over-n": ("yes", ((3,), (0,), (1,), (), (), (), (), (4, 6), (2, 5)), 37063),
    "no-k-over-n": ("no", None, 38896),
    "yes-empty-parts-before-a-tie": ("yes", ((1,), (), (), (0, 2, 3, 4)), 188),
    "benchmark-shaped-no": ("no", None, 9965),
    "benchmark-shaped-yes": ("yes", ((0,), tuple(range(1, 1000))), 999),
}


def check_k_part_golden(prof, k, answer, parts, cases):
    inst = ccpkv(prof, k)
    d = solve_plurality_ccpkv_te(inst)
    assert (d.answer, d.stats["cases"]) == (answer, cases)
    assert (d.witness and d.witness.parts) == parts
    if answer == "yes":
        assert verify_witness(inst, d.witness)


@pytest.mark.parametrize("name", CCPKV_GOLDEN)
def test_k_part_solver_answer_witness_and_cases_are_pinned(name):
    prof, k, golden = CCPKV_GOLDEN[name]
    check_k_part_golden(prof, k, *golden)


@pytest.mark.parametrize("name", CCPKV_REVERSED_GOLDEN)
def test_k_part_solver_is_pinned_with_p_last(name):
    prof, k, _ = CCPKV_GOLDEN[name]
    check_k_part_golden(reversed_candidates(prof), k, *CCPKV_REVERSED_GOLDEN[name])


def test_k_part_solver_agrees_with_the_oracle_on_random_instances():
    # k from 2 to 6 and past the ballot count, where parts must stay empty.
    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(2, 4), rng.randint(0, 7)
        prof = digit_profile(m, ["".join(rng.sample("p123"[:m], m)) for _ in range(n)])
        for k in sorted({2, 3, 4, 5, 6, n + 1, n + 3} - {0, 1}):
            inst = ccpkv(prof, k)
            d = solve_plurality_ccpkv_te(inst)
            assert d.answer == oracle_solve(inst).answer, (prof, k)
            if d.answer == "yes":
                assert verify_witness(inst, d.witness), (prof, k)


def test_k_part_solver_memory_does_not_grow_with_the_counts():
    # 60 candidates, each topping 100 copies of one rotation (shared Ballot
    # objects, so the profile builds fast) give 183,001 guesses. Kept as a
    # tuple each, they took 15 MB; numbered, they are one block per
    # candidate and per pair.
    ids = ["p"] + [f"c{i}" for i in range(1, 60)]
    rotations = [linear(*ids[i:], *ids[:i]) for i in range(60)]
    prof = Profile(tuple(map(Candidate, ids)), tuple(b for b in rotations for _ in range(100)))
    inst = ccpkv(prof, 3)
    tracemalloc.start()
    try:
        d = solve_plurality_ccpkv_te(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert (d.answer, d.stats["cases"]) == ("yes", 12001)
    assert verify_witness(inst, d.witness)


def test_multiset_counts_and_ranks_follow_the_enumeration():
    for kinds in range(0, 6):
        for size in range(0, 5):
            combos = list(itertools.combinations_with_replacement(range(kinds), size))
            assert _multisets(kinds, size, CASES_LIMIT) == len(combos)
            assert _multisets(kinds, size, 6) == min(len(combos), 7)
            for rank, combo in enumerate(combos):
                runs = [(i, combo.count(i)) for i in sorted(set(combo))]
                assert _rank(runs, kinds, size, CASES_LIMIT) == rank
                assert _rank(runs, kinds, size, 6) == min(rank, 7)
    # A million items: the capped product stops within a few dozen steps.
    assert _multisets(5, 10 ** 6, CASES_LIMIT) == CASES_LIMIT + 1
    assert _rank([(0, 10 ** 6 - 1), (3, 1)], 5, 10 ** 6, CASES_LIMIT) == 3
    assert _rank([(1, 10 ** 6)], 5, 10 ** 6, CASES_LIMIT) == CASES_LIMIT + 1


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), seed=st.integers(0, 10 ** 6),
       m=st.integers(1, 4), n=st.integers(0, 7), k=st.integers(2, 4), data=st.data())
def test_permuting_the_candidates_leaves_every_poly_answer_unchanged(family, seed, m, n, k,
                                                                      data):
    # The symmetry relation: a solver's answer depends on the election, not
    # on where p and its rivals stand in the candidate list.
    inst = family_instance(random.Random(seed), family, m, n, k=k)
    assert (inst.problem, inst.rule, inst.tie) in POLY_SOLVERS
    cands = inst.profile.candidates
    order = data.draw(st.permutations(range(len(cands))))
    moved = dataclasses.replace(inst, profile=Profile(
        tuple(cands[i] for i in order), inst.profile.ballots))
    answers = []
    for case in (inst, moved):
        d = solve_poly(case)
        answers.append(d.answer)
        if d.answer == "yes":
            assert verify_witness(case, d.witness)
    assert answers[0] == answers[1]


class TestTrivialPartitionSolver:
    def test_weak_condorcet_winner_survives_protection(self):
        prof = Profile(PAB, (linear("a", "p", "b"), linear("a", "p", "b"),
                             linear("p", "b", "a"), linear("b", "p", "a"),
                             linear("p", "a", "b")))
        inst = ControlInstance(problem=Problem.CCRPC, rule=VotingRule.WEAK_CONDORCET,
                               profile=prof, p="p", tie=TieRule.TP)
        d = solve_weakcondorcet_ccrpc_tp(inst)
        assert d.answer == "yes"
        assert d.witness.c1 == frozenset({"p"})
        assert verify_witness(inst, d.witness)

    def test_non_winner_cannot_be_protected(self):
        inst = ControlInstance(problem=Problem.CCRPC, rule=VotingRule.WEAK_CONDORCET,
                               profile=profile("a", "a", "b"), p="p", tie=TieRule.TP)
        d = solve_weakcondorcet_ccrpc_tp(inst)
        assert d.answer == oracle_solve(inst).answer == "no"


class TestSystemESolver:
    def test_always_no(self):
        cands = PAB + tuple(Candidate(f"s{i}", i) for i in range(4))
        prof = Profile(cands, (approval(["p"]), approval(["p", "a"])))
        inst = ControlInstance(problem=Problem.CCEPV, rule=VotingRule.SYSTEM_E,
                               profile=prof, p="p", tie=TieRule.TP)
        d = solve_system_e_ccepv_tp(inst)
        assert d.answer == "no"
        assert oracle_solve(inst).answer == "no"


class TestDispatch:
    def test_solve_poly_routes_supported_instances(self):
        inst = ccepv(profile("p", "p", "a", "a", "b"))
        assert solve_poly(inst).answer == "yes"

    def test_solve_poly_rejects_oracle_only_instances(self):
        inst = ControlInstance(problem=Problem.CCRPC, rule=VotingRule.CONDORCET,
                               profile=profile("p"), p="p", tie=TieRule.TE)
        with pytest.raises(UnsupportedInstance):
            solve_poly(inst)
