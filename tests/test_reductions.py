"""Unit tests for the hardness-reduction constructors and source solvers."""

from itertools import combinations

import pytest

from electctl import (
    CandidatePartition,
    CubicGraphVC,
    MajoritySpec,
    Problem,
    TieRule,
    VotingRule,
    X3CInstance,
    approval_ccpv_te_to_e_ccpv_tp,
    approval,
    cubic_vc_to_weakcondorcet_ccrepc_tp,
    linear,
    mcgarvey_profile,
    oracle_solve,
    pull_back_vc_witness,
    solve_vc_bruteforce,
    solve_x3c_bruteforce,
    verify_witness,
    x3c_to_plurality_ccpvg_te,
)
from electctl.elections import Candidate, Profile, score_plurality
from electctl.reductions import vc_forward_witness
from electctl.two_stage import ControlInstance

K4 = CubicGraphVC(
    ("u1", "u2", "u3", "u4"),
    tuple(frozenset(e) for e in (("u1", "u2"), ("u1", "u3"), ("u1", "u4"),
                                 ("u2", "u3"), ("u2", "u4"), ("u3", "u4"))),
    k=3,
)

K33 = CubicGraphVC(
    ("l1", "l2", "l3", "r1", "r2", "r3"),
    tuple(frozenset((a, b)) for a in ("l1", "l2", "l3") for b in ("r1", "r2", "r3")),
    k=3,
)

BASE6 = ("b1", "b2", "b3", "b4", "b5", "b6")


def x3c(*triples):
    return X3CInstance(BASE6, tuple(frozenset(t) for t in triples))


class TestMcGarvey:
    def test_margins_exactly_two_or_zero(self):
        spec = MajoritySpec(("x", "y", "z", "w"),
                            (("x", "y"), ("z", "x"), ("w", "y")))
        prof = mcgarvey_profile(spec)
        from electctl import majority_margin

        assert majority_margin(prof, "x", "y") == 2
        assert majority_margin(prof, "z", "x") == 2
        assert majority_margin(prof, "w", "y") == 2
        assert majority_margin(prof, "x", "w") == 0
        assert majority_margin(prof, "y", "z") == 0
        assert majority_margin(prof, "z", "w") == 0
        assert len(prof.ballots) == 2 * len(spec.beats)

    def test_strict_pairs_need_three_candidates(self):
        with pytest.raises(ValueError):
            mcgarvey_profile(MajoritySpec(("x", "y"), (("x", "y"),)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MajoritySpec(("x", "y"), (("x", "x"),))
        with pytest.raises(ValueError):
            MajoritySpec(("x", "y"), (("x", "y"), ("y", "x")))
        with pytest.raises(ValueError):
            MajoritySpec(("x", "x"))


class TestCubicVC:
    def test_graph_validation(self):
        with pytest.raises(ValueError):  # path is not cubic
            CubicGraphVC(("a", "b"), (frozenset(("a", "b")),), 1)
        with pytest.raises(ValueError):  # k out of range
            CubicGraphVC(K4.vertices, K4.edges, 5)
        for vertices, edges, message in (
                (K4.vertices + ("u1",), K4.edges, "duplicate vertices"),
                (K4.vertices, K4.edges + K4.edges[:1], "duplicate edges"),
                (K4.vertices, K4.edges[:5] + (frozenset(("u1", "x")),), "bad edge"),
                (K4.vertices, K4.edges[:5] + (frozenset(("u1",)),), "bad edge")):
            with pytest.raises(ValueError, match=message):
                CubicGraphVC(vertices, edges, 3)

    def test_vertex_ids_may_not_hold_the_edge_separator(self):
        # Edge ids join their endpoints with "|", so "a|b" would make them
        # ambiguous: in K4 its edges could not be split back into a pair,
        # and in K_{3,3} the edges a|b-c and a-b|c would share one id.
        k4 = ("a|b", "u2", "u3", "u4")
        k33 = (("a|b", "a", "x"), ("c", "b|c", "y"))
        for vertices, edges in (
                (k4, [frozenset(e) for e in combinations(k4, 2)]),
                (k33[0] + k33[1], [frozenset((u, v)) for u in k33[0] for v in k33[1]])):
            with pytest.raises(ValueError, match=r"may not contain '\|'"):
                CubicGraphVC(vertices, edges, 3)

    def test_brute_force_cover_numbers(self):
        assert not solve_vc_bruteforce(K4, 2)
        assert solve_vc_bruteforce(K4, 3)
        assert not solve_vc_bruteforce(K33, 2)
        assert solve_vc_bruteforce(K33, 3)
        # A prism over two 11-cycles: 22 vertices, past the limit.
        a, b = [f"a{i}" for i in range(11)], [f"b{i}" for i in range(11)]
        prism = CubicGraphVC(a + b, [frozenset(e) for i in range(11) for e in (
            (a[i], a[i - 1]), (b[i], b[i - 1]), (a[i], b[i]))], 11)
        with pytest.raises(ValueError, match="limited to 20 vertices"):
            solve_vc_bruteforce(prism)

    def test_construction_size(self):
        inst = cubic_vc_to_weakcondorcet_ccrepc_tp(K4)
        n, k = 4, 3
        assert len(inst.profile.candidates) == 3 * n + 2 * k  # 18
        assert (inst.problem, inst.rule, inst.tie) == (
            Problem.CCREPC, VotingRule.WEAK_CONDORCET, TieRule.TP)

    def test_yes_and_no_preserved_on_k4(self):
        # Frozen from the exhaustive oracle: K4's cover number is 3.
        for k, expected in ((2, "no"), (3, "yes")):
            g = CubicGraphVC(K4.vertices, K4.edges, k)
            d = oracle_solve(cubic_vc_to_weakcondorcet_ccrepc_tp(g))
            assert d.answer == expected, k

    def test_forward_witness_from_cover(self):
        g = K4
        w = vc_forward_witness(g, frozenset(("u1", "u2", "u3")))
        inst = cubic_vc_to_weakcondorcet_ccrepc_tp(g)
        assert abs(len(w.c1) - len(w.c2)) <= 1
        assert verify_witness(inst, w)

    def test_pull_back_recovers_cover(self):
        inst = cubic_vc_to_weakcondorcet_ccrepc_tp(K4)
        d = oracle_solve(inst)
        cover = pull_back_vc_witness(inst, d.witness)
        assert len(cover) <= 3
        for e in K4.edges:
            assert e & cover

    def test_pull_back_rejects_non_witness(self):
        inst = cubic_vc_to_weakcondorcet_ccrepc_tp(K4)
        ids = frozenset(inst.profile.candidate_ids)
        half = frozenset(sorted(ids)[: len(ids) // 2])
        bad = half if "p" not in half else ids - half
        with pytest.raises(ValueError):
            pull_back_vc_witness(inst, CandidatePartition(ids - bad, bad))

    def test_pull_back_rejects_a_verified_witness_that_is_no_cover(self):
        # Hand-built weakCondorcet-CCREPC-TP instances, not reductions, on
        # which one ballot ranking the candidates in list order makes p the
        # sole final winner of ({p, ...}, rest). The budget k is read off
        # the candidate counts: (dummies + 1 - vertices // 2) // 2.
        for ids, c1, message in (
                # k = 0, yet both vertices are on the side without p.
                (("p", "v:a", "v:b"), {"p"}, "exceeds the cover budget"),
                # k = 1 and an empty cover, which misses the edge a-b.
                (("p", "d:0", "d:1", "e:a|b"), {"p", "d:0"}, "misses edge a-b")):
            inst = ControlInstance(
                problem=Problem.CCREPC, rule=VotingRule.WEAK_CONDORCET, p="p",
                profile=Profile(tuple(map(Candidate, ids)), (linear(*ids),)), tie=TieRule.TP)
            w = CandidatePartition(c1, set(ids) - c1)
            assert verify_witness(inst, w)
            with pytest.raises(ValueError, match=message):
                pull_back_vc_witness(inst, w)


class TestX3C:
    def test_instance_validation(self):
        with pytest.raises(ValueError):  # base not a multiple of 3
            X3CInstance(("a", "b", "c", "d"), ())
        with pytest.raises(ValueError):  # too few triples (need > m+1)
            x3c(("b1", "b2", "b3"), ("b4", "b5", "b6"))
        with pytest.raises(ValueError):  # non-triple member set
            x3c(("b1", "b2"), ("b1", "b2", "b3"), ("b4", "b5", "b6"),
                ("b1", "b5", "b6"))
        with pytest.raises(ValueError, match="duplicate base elements"):
            X3CInstance(BASE6[:5] + ("b1",), ())

    def test_brute_force(self):
        yes = x3c(("b1", "b2", "b3"), ("b4", "b5", "b6"),
                  ("b1", "b2", "b4"), ("b1", "b5", "b6"))
        no = x3c(("b1", "b2", "b3"), ("b1", "b2", "b4"),
                 ("b1", "b4", "b5"), ("b1", "b5", "b6"))
        assert solve_x3c_bruteforce(yes)
        assert not solve_x3c_bruteforce(no)
        with pytest.raises(ValueError, match="limited to 20 triples"):
            solve_x3c_bruteforce(x3c(*[("b1", "b2", "b3")] * 21))

    def test_reduction_shape_and_scores(self):
        x = x3c(("b1", "b2", "b3"), ("b4", "b5", "b6"),
                ("b1", "b2", "b4"), ("b1", "b5", "b6"))
        inst = x3c_to_plurality_ccpvg_te(x)
        m, n = x.m, x.n
        assert (inst.problem, inst.rule, inst.tie) == (
            Problem.CCPVG, VotingRule.PLURALITY, TieRule.TE)
        assert len(inst.groups) == n + 3
        scores = score_plurality(inst.profile)
        assert scores["p"] == 2 * (n + m)
        assert scores["c"] == 2 * (n + m) + n + 2
        assert scores["d"] == 2 * (n + m) + m + 1
        assert scores["e"] == 2 * n + m
        for b in x.base:
            assert scores[b] == 2 * n

    def test_yes_and_no_preserved(self):
        yes = x3c(("b1", "b2", "b3"), ("b4", "b5", "b6"),
                  ("b1", "b2", "b4"), ("b1", "b5", "b6"))
        no = x3c(("b1", "b2", "b3"), ("b1", "b2", "b4"),
                 ("b1", "b4", "b5"), ("b1", "b5", "b6"))
        d_yes = oracle_solve(x3c_to_plurality_ccpvg_te(yes))
        d_no = oracle_solve(x3c_to_plurality_ccpvg_te(no))
        assert d_yes.answer == "yes"
        assert d_no.answer == "no"

    def test_reserved_candidate_names(self):
        with pytest.raises(ValueError):
            x3c_to_plurality_ccpvg_te(
                X3CInstance(("p", "x2", "x3", "x4", "x5", "x6"),
                            (frozenset(("p", "x2", "x3")),
                             frozenset(("x4", "x5", "x6")),
                             frozenset(("p", "x2", "x4")),
                             frozenset(("p", "x5", "x6")))))

    def test_reduction_is_deterministic(self):
        x = x3c(("b1", "b2", "b3"), ("b4", "b5", "b6"),
                ("b1", "b2", "b4"), ("b1", "b5", "b6"))
        assert x3c_to_plurality_ccpvg_te(x) == x3c_to_plurality_ccpvg_te(x)


class TestApprovalToSystemE:
    def source(self, n_voters):
        cands = tuple(Candidate(c) for c in ("p", "a", "b"))
        ballots = tuple(approval(["p"] if i % 2 else ["a"]) for i in range(n_voters))
        return ControlInstance(problem=Problem.CCPV, rule=VotingRule.APPROVAL,
                               profile=Profile(cands, ballots), p="p",
                               tie=TieRule.TE)

    def test_parity_padding(self):
        assert len(approval_ccpv_te_to_e_ccpv_tp(self.source(4)).profile.ballots) == 6
        assert len(approval_ccpv_te_to_e_ccpv_tp(self.source(5)).profile.ballots) == 6

    def test_adds_four_unapproved_specials(self):
        tgt = approval_ccpv_te_to_e_ccpv_tp(self.source(4))
        specials = [c for c in tgt.profile.candidates if c.special_index is not None]
        assert sorted(c.special_index for c in specials) == [0, 1, 2, 3]
        ids = {c.id for c in specials}
        assert all(not (b.approvals & ids) for b in tgt.profile.ballots)
        assert (tgt.problem, tgt.rule, tgt.tie) == (
            Problem.CCPV, VotingRule.SYSTEM_E, TieRule.TP)

    def test_rejects_wrong_source(self):
        src = self.source(4)
        with pytest.raises(ValueError):
            approval_ccpv_te_to_e_ccpv_tp(approval_ccpv_te_to_e_ccpv_tp(src))
        linear_src = ControlInstance(
            problem=Problem.CCPV, rule=VotingRule.PLURALITY,
            profile=Profile((Candidate("p"), Candidate("a")),
                            (linear("p", "a"),)),
            p="p", tie=TieRule.TE)
        with pytest.raises(ValueError):
            approval_ccpv_te_to_e_ccpv_tp(linear_src)
        for cands, message in (
                ((Candidate("p"), Candidate("a", special_index=0)), "special candidates"),
                ((Candidate("p"), Candidate("3")), "clash with the special candidates")):
            tagged = ControlInstance(problem=Problem.CCPV, rule=VotingRule.APPROVAL,
                                     profile=Profile(cands, (approval(["p"]),)), p="p",
                                     tie=TieRule.TE)
            with pytest.raises(ValueError, match=message):
                approval_ccpv_te_to_e_ccpv_tp(tagged)

    def test_decision_preserved_on_small_case(self):
        src = self.source(4)
        tgt = approval_ccpv_te_to_e_ccpv_tp(src)
        assert oracle_solve(src).answer == oracle_solve(tgt).answer
