"""Acceptance gate: nine standalone criteria with pinned runtime targets.

Each test records one pass/fail line, emitted in the terminal summary by
conftest.py. The criteria check solver/oracle agreement (exhaustively where
feasible, seeded elsewhere), reduction yes/no preservation, construction
fidelity, and structural invariants of the two-stage election semantics.
"""

import functools
import itertools
import random
import time

from electctl import (
    Candidate,
    ControlInstance,
    CubicGraphVC,
    GroupSelection,
    Problem,
    Profile,
    TieRule,
    VoterPartition,
    VotingRule,
    X3CInstance,
    approval,
    approval_ccpv_te_to_e_ccpv_tp,
    cubic_vc_to_weakcondorcet_ccrepc_tp,
    linear,
    majority_margin,
    oracle_solve,
    pull_back_vc_witness,
    solve_plurality_ccepv_te,
    solve_plurality_ccpkv_te,
    solve_poly,
    solve_vc_bruteforce,
    solve_x3c_bruteforce,
    verify_witness,
    winners,
    x3c_to_plurality_ccpvg_te,
)
from electctl.generate import family_instance
from electctl.two_stage import finalists_voter_partition

RESULTS = {}


def criterion(num, name):
    """Record the criterion outcome, then let pytest see any failure."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                detail = fn() or ""
            except BaseException as exc:
                RESULTS[num] = (name, False, f"{type(exc).__name__}: {exc}")
                raise
            elapsed = time.perf_counter() - start
            RESULTS[num] = (name, True, f"{detail}{elapsed:.1f}s")
            return None

        return wrapper

    return decorate


PAB = tuple(Candidate(c) for c in ("p", "a", "b"))
ORDERS3 = tuple(itertools.permutations(("p", "a", "b")))


def profile3(orders):
    return Profile(PAB, tuple(linear(*o) for o in orders))


def lex_profile(*tops):
    def comp(t):
        rest = sorted(c for c in ("p", "a", "b") if c != t)
        return linear(t, *rest)

    return Profile(PAB, tuple(comp(t) for t in tops))


@criterion(1, "equipartition solver on the 14-voter worked example")
def test_criterion_1_worked_example():
    start = time.perf_counter()
    prof = lex_profile(*(["p"] * 5 + ["a"] * 6 + ["b"] * 3))
    inst = ControlInstance(problem=Problem.CCEPV, rule=VotingRule.PLURALITY,
                           profile=prof, p="p", tie=TieRule.TE)
    d = solve_plurality_ccepv_te(inst)
    assert d.answer == "yes"
    sizes = sorted(len(p) for p in d.witness.parts)
    assert sizes == [7, 7]
    assert verify_witness(inst, d.witness)
    # the naive partition putting all five p-ballots into part one fails
    naive = VoterPartition(((0, 1, 2, 3, 4, 5, 6), tuple(range(7, 14))))
    assert verify_witness(inst, naive) is False
    assert time.perf_counter() - start < 1.0


@criterion(2, "exhaustive solver/oracle agreement, equipartition of voters")
def test_criterion_2_ccepv_exhaustive():
    count = 0
    for orders in itertools.combinations_with_replacement(ORDERS3, 6):
        prof = profile3(orders)
        for p in ("p", "a", "b"):
            inst = ControlInstance(problem=Problem.CCEPV,
                                   rule=VotingRule.PLURALITY,
                                   profile=prof, p=p, tie=TieRule.TE)
            poly = solve_plurality_ccepv_te(inst)
            orc = oracle_solve(inst)
            assert poly.answer == orc.answer, (orders, p)
            if poly.answer == "yes":
                assert verify_witness(inst, poly.witness), (orders, p)
            count += 1
    assert count == 1386
    return f"{count} instances, "


@criterion(3, "exhaustive solver/oracle agreement, k-partition of voters")
def test_criterion_3_ccpkv_exhaustive():
    count = 0
    for orders in itertools.combinations_with_replacement(ORDERS3, 5):
        prof = profile3(orders)
        for p in ("p", "a", "b"):
            for k in (2, 3):
                inst = ControlInstance(problem=Problem.CCPKV,
                                       rule=VotingRule.PLURALITY,
                                       profile=prof, p=p, tie=TieRule.TE, k=k)
                poly = solve_plurality_ccpkv_te(inst)
                assert poly.answer == oracle_solve(inst).answer, (orders, p, k)
                if k == 2:
                    two = ControlInstance(problem=Problem.CCPV,
                                          rule=VotingRule.PLURALITY,
                                          profile=prof, p=p, tie=TieRule.TE)
                    assert poly.answer == oracle_solve(two).answer, (orders, p)
                count += 1
    assert count == 1512
    return f"{count} instances, "


@criterion(4, "trivial-partition solver/oracle agreement, weak Condorcet")
def test_criterion_4_wcrpc_seeded():
    rng = random.Random(4)
    for i in range(500):
        inst = family_instance(rng, "wcrpc", 4, 5)
        poly = solve_poly(inst)
        orc = oracle_solve(inst)
        assert poly.answer == orc.answer, i
        if poly.answer == "yes":
            assert verify_witness(inst, poly.witness), i
    return "500 instances, "


@criterion(5, "system-E control is always no; winner rule branch table")
def test_criterion_5_system_e():
    rng = random.Random(5)
    for i in range(200):
        inst = family_instance(rng, "e-ccepv", 3, 5)
        assert solve_poly(inst).answer == "no", i
        assert oracle_solve(inst).answer == "no", i

    def e_prof(special_indices, nonspecial, ballots):
        cands = tuple(Candidate(f"s{i}", i) for i in special_indices)
        cands += tuple(Candidate(c) for c in nonspecial)
        return Profile(cands, tuple(approval(a) for a in ballots))

    # hand-enumerated winner table covering every branch of the rule
    table = [
        (e_prof((0, 2), ("x",), [["x"], ["x"]]), {"x"}),
        (e_prof((1, 3), ("x", "y"), [["x"], ["x"], ["y"]]), {"x"}),
        (e_prof((0, 1), ("x",), [["x"]]), set()),
        (e_prof((1, 3), (), [[], []]), set()),
        (e_prof((), ("x", "y"), [["x"]]), set()),
        (e_prof((0, 2), ("x", "y"), [["x"], ["y"]]), {"x", "y"}),
        (e_prof((0, 1, 2, 3), ("x",), [["x"]] * 4), {"s0", "x"}),
        (e_prof((0, 1, 2, 3), ("x",), [["x"]] * 5), {"s1", "x"}),
        (e_prof((0, 1, 2, 3), ("x", "y"), [["x"], ["y"]]), {"s2"}),
        (e_prof((0, 1, 2, 3), ("x", "y"), [["x"], ["x"], ["y"]]), {"s3", "x"}),
        (e_prof((0, 1, 2), ("x", "y"), [["x"]]), set()),
        (e_prof((0, 1, 2, 3), ("x",), []), {"s0", "x"}),
    ]
    for i, (prof, expected) in enumerate(table):
        assert winners(VotingRule.SYSTEM_E, prof) == frozenset(expected), i
    return "200 no-instances + 12 rule cases, "


def x3c_pool():
    """>= 50 fixed instances with m=2, n in 4..5, plus forced yes/no cases."""
    base = ("b1", "b2", "b3", "b4", "b5", "b6")
    rng = random.Random(6)
    pool = []
    while len(pool) < 48:
        n = rng.choice((4, 5))
        seen = set()
        while len(seen) < n:
            seen.add(frozenset(rng.sample(base, 3)))
        pool.append(X3CInstance(base, tuple(sorted(seen, key=sorted))))
    pool.append(X3CInstance(base, (
        frozenset(("b1", "b2", "b3")), frozenset(("b4", "b5", "b6")),
        frozenset(("b1", "b2", "b4")), frozenset(("b1", "b5", "b6")))))
    pool.append(X3CInstance(base, (  # every triple contains b1: no cover
        frozenset(("b1", "b2", "b3")), frozenset(("b1", "b2", "b4")),
        frozenset(("b1", "b4", "b5")), frozenset(("b1", "b5", "b6")))))
    return pool


@criterion(6, "exact-cover reduction preserves yes/no and its score table")
def test_criterion_6_x3c_reduction():
    start = time.perf_counter()
    from electctl.elections import score_plurality

    pool = x3c_pool()
    assert len(pool) >= 50
    answers = {"yes": 0, "no": 0}
    for x in pool:
        inst = x3c_to_plurality_ccpvg_te(x)
        m, n = x.m, x.n
        scores = score_plurality(inst.profile)
        expected = {"p": 2 * (n + m), "c": 2 * (n + m) + n + 2,
                    "d": 2 * (n + m) + m + 1, "e": 2 * n + m}
        expected.update({b: 2 * n for b in x.base})
        assert scores == expected
        src = solve_x3c_bruteforce(x)
        tgt = oracle_solve(inst)
        assert tgt.answer == ("yes" if src else "no"), x.triples
        answers[tgt.answer] += 1
    assert answers["yes"] >= 1 and answers["no"] >= 1
    assert time.perf_counter() - start < 300.0
    return f"{len(pool)} instances ({answers['yes']} yes / {answers['no']} no), "


@criterion(7, "vertex-cover reduction preserves yes/no with valid pull-back")
def test_criterion_7_vc_reduction():
    start = time.perf_counter()
    k4_edges = tuple(frozenset(e) for e in (
        ("u1", "u2"), ("u1", "u3"), ("u1", "u4"),
        ("u2", "u3"), ("u2", "u4"), ("u3", "u4")))
    k33_edges = tuple(frozenset((a, b))
                      for a in ("l1", "l2", "l3") for b in ("r1", "r2", "r3"))
    graphs = [(("u1", "u2", "u3", "u4"), k4_edges, 3),
              (("l1", "l2", "l3", "r1", "r2", "r3"), k33_edges, 3)]
    sweep_cases = None
    for vertices, edges, cover_number in graphs:
        for k in (cover_number - 1, cover_number, cover_number + 1):
            g = CubicGraphVC(vertices, edges, k)
            inst = cubic_vc_to_weakcondorcet_ccrepc_tp(g)
            src = solve_vc_bruteforce(g)
            d = oracle_solve(inst)
            assert d.answer == ("yes" if src else "no"), (vertices, k)
            if len(vertices) == 4 and k == 3:
                sweep_cases = d.stats["cases"]
            if d.answer == "yes":
                cover = pull_back_vc_witness(inst, d.witness)
                assert len(cover) <= k
                assert all(e & cover for e in edges)
        # McGarvey fidelity: margins are exactly +2 (strict) or 0 (tie)
        prof = cubic_vc_to_weakcondorcet_ccrepc_tp(
            CubicGraphVC(vertices, edges, cover_number)).profile
        ids = prof.candidate_ids
        margins = {abs(majority_margin(prof, a, b))
                   for a, b in itertools.combinations(ids, 2)}
        assert margins <= {0, 2}
    assert sweep_cases is not None and sweep_cases <= 24310
    assert time.perf_counter() - start < 120.0
    return "K4 + K_{3,3}, k below/at/above cover number, "


@criterion(8, "approval-to-system-E reduction preserves yes/no and parity")
def test_criterion_8_approval_to_e():
    rng = random.Random(8)
    ids = ("p", "a", "b")
    cands = tuple(Candidate(c) for c in ids)
    for i in range(30):
        ballots = tuple(
            approval([c for c in ids if rng.random() < 0.5]) for _ in range(4))
        src = ControlInstance(problem=Problem.CCPV, rule=VotingRule.APPROVAL,
                              profile=Profile(cands, ballots), p="p",
                              tie=TieRule.TE)
        tgt = approval_ccpv_te_to_e_ccpv_tp(src)
        pad = len(tgt.profile.ballots) - len(src.profile.ballots)
        assert pad == (2 if len(src.profile.ballots) % 2 == 0 else 1)
        assert oracle_solve(src).answer == oracle_solve(tgt).answer, i
    return "30 instances, "


@criterion(9, "structural invariants over seeded instances")
def test_criterion_9_structural_properties():
    rng = random.Random(9)

    def rand_profile(n_voters):
        return profile3([rng.choice(ORDERS3) for _ in range(n_voters)])

    # singleton voter groups make group partition collapse to plain partition
    for i in range(1000):
        prof = rand_profile(5)
        plain = ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                                profile=prof, p="p", tie=TieRule.TE)
        grouped = ControlInstance(
            problem=Problem.CCPVG, rule=VotingRule.PLURALITY, profile=prof,
            p="p", tie=TieRule.TE,
            labels=[f"g{j}" for j in range(5)])
        assert oracle_solve(plain).answer == oracle_solve(grouped).answer, i

    # Condorcet subelections never tie, so TE and TP promote identically
    for i in range(1000):
        prof = rand_profile(6)
        side = [rng.random() < 0.5 for _ in range(6)]
        parts = (tuple(j for j in range(6) if side[j]),
                 tuple(j for j in range(6) if not side[j]))
        te = finalists_voter_partition(VotingRule.CONDORCET, TieRule.TE,
                                       prof, parts)
        tp = finalists_voter_partition(VotingRule.CONDORCET, TieRule.TP,
                                       prof, parts)
        assert te == tp, i

    # an accepted equipartition witness is an accepted plain-partition witness
    accepted = 0
    for i in range(1000):
        prof = rand_profile(6)
        idx = list(range(6))
        rng.shuffle(idx)
        w = VoterPartition((tuple(idx[:3]), tuple(idx[3:])))
        equi = ControlInstance(problem=Problem.CCEPV, rule=VotingRule.PLURALITY,
                               profile=prof, p="p", tie=TieRule.TE)
        plain = ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                                profile=prof, p="p", tie=TieRule.TE)
        if verify_witness(equi, w):
            accepted += 1
            assert verify_witness(plain, w), i
    assert accepted > 0
    return "3 properties x 1000 instances, "
