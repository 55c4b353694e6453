"""Unit tests for the polynomial-time control solvers."""

import itertools

import pytest

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

PAB = tuple(Candidate(c) for c in ("p", "a", "b"))


def lex(top):
    rest = sorted(c for c in ("p", "a", "b") if c != top)
    return linear(top, *rest)


def profile(*tops):
    return Profile(PAB, tuple(lex(t) for t in tops))


def ccepv(prof):
    return ControlInstance(problem=Problem.CCEPV, rule=VotingRule.PLURALITY,
                           profile=prof, p="p", tie=TieRule.TE)


def ccpkv(prof, k):
    return ControlInstance(problem=Problem.CCPKV, rule=VotingRule.PLURALITY,
                           profile=prof, p="p", tie=TieRule.TE, k=k)


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
        # The p-versus-c final goes through winners(); the Condorcet
        # family's margin table is never built for a plurality instance.
        for tops in (("p", "p", "a", "a", "b"), ("p", "a", "a", "b")):
            inst = ccepv(profile(*tops))
            solve_plurality_ccepv_te(inst)
            assert "_margins" not in inst.profile.__dict__

    def test_agrees_with_oracle_on_all_four_voter_profiles(self):
        for tops in itertools.product("pab", repeat=4):
            inst = ccepv(profile(*tops))
            d = solve_plurality_ccepv_te(inst)
            assert d.answer == oracle_solve(inst).answer, tops
            if d.answer == "yes":
                assert verify_witness(inst, d.witness), tops

    def test_rejects_other_instances(self):
        with pytest.raises(UnsupportedInstance):
            solve_plurality_ccepv_te(ccpkv(profile("p"), 2))


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
