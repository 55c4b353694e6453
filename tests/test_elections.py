"""Unit tests for the ballot model and single-stage winner determination."""

import pytest

from electctl import (
    Ballot,
    Candidate,
    ControlInstance,
    Problem,
    Profile,
    TieRule,
    VoterPartition,
    VotingRule,
    approval,
    linear,
    majority_margin,
    restrict_profile,
    score_approval,
    score_plurality,
    verify_witness,
    winners,
)
from electctl.elections import _elect, _mask_ids, pairwise_margins
from pab import PAB, lex, profile


class TestModelValidation:
    def test_ballot_needs_exactly_one_kind(self):
        with pytest.raises(ValueError):
            Ballot()
        with pytest.raises(ValueError):
            Ballot(order=("p",), approvals=frozenset({"p"}))

    def test_unknown_approval_ids_of_mixed_types(self):
        # Ids that do not compare with each other are listed in str order.
        with pytest.raises(ValueError, match=r"unknown candidates: \[1, 'x'\]"):
            Profile((Candidate("p"), Candidate("a")), (approval([1, "x"]),))

    def test_candidate_special_index_range(self):
        assert Candidate("x", 3).special_index == 3
        with pytest.raises(ValueError):
            Candidate("x", 4)

    def test_profile_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            Profile((Candidate("p"), Candidate("p")))

    def test_profile_rejects_duplicate_special_tags(self):
        with pytest.raises(ValueError):
            Profile((Candidate("x", 0), Candidate("y", 0)))

    def test_profile_rejects_non_permutation_ballot(self):
        with pytest.raises(ValueError):
            Profile(PAB, (linear("p", "a"),))
        with pytest.raises(ValueError):
            Profile(PAB, (linear("p", "a", "a"),))

    def test_profile_rejects_unknown_approvals(self):
        with pytest.raises(ValueError):
            Profile(PAB, (approval(["p", "z"]),))

    def test_profile_rejects_mixed_ballot_kinds(self):
        with pytest.raises(ValueError):
            Profile(PAB, (lex("p"), approval(["a"])))

    def test_profile_needs_candidates(self):
        with pytest.raises(ValueError):
            Profile(())

    def test_rule_ballot_kind_mismatch(self):
        with pytest.raises(ValueError):
            winners(VotingRule.PLURALITY, Profile(PAB, (approval(["p"]),)))
        with pytest.raises(ValueError):
            winners(VotingRule.APPROVAL, profile("p"))

    def test_votes_out_of_range(self):
        # A negative index must not wrap around to the last ballot: the
        # voter parts that reach _elect as votes are checked first.
        prof = profile("p", "a")
        for rule in (VotingRule.PLURALITY, VotingRule.CONDORCET):
            inst = ControlInstance(problem=Problem.CCPV, rule=rule, profile=prof, p="p",
                                   tie=TieRule.TE)
            for part in ((-1,), (0, 2), (5,)):
                with pytest.raises(ValueError, match="out of range"):
                    verify_witness(inst, VoterPartition((part, (0, 1))))

        def elect(votes):
            return _mask_ids(prof, _elect(VotingRule.PLURALITY, prof, prof.everyone, votes))
        assert elect(0b10) == {"a"}
        assert elect(0) == {"p", "a", "b"}


class TestScores:
    def test_plurality_counts_tops(self):
        assert score_plurality(profile("p", "p", "a", "b", "b")) == {
            "p": 2, "a": 1, "b": 2,
        }

    def test_plurality_zero_filled(self):
        assert score_plurality(profile("a", "a")) == {"p": 0, "a": 2, "b": 0}

    def test_approval_counts(self):
        prof = Profile(PAB, (approval(["p", "a"]), approval(["a"]), approval([])))
        assert score_approval(prof) == {"p": 1, "a": 2, "b": 0}

    def test_supporters_are_the_ballots_that_count_for_each_candidate(self):
        # Bit i of a candidate's supporter mask is set iff ballot i ranks it
        # first or approves it; a repeated ballot object sets its bit each
        # time, and a profile with no ballots has no supporters.
        def definition(prof, c):
            cid = prof.candidate_ids[c]
            return sum(1 << i for i, b in enumerate(prof.ballots)
                       if (b.order[0] == cid if b.order is not None else cid in b.approvals))

        ids = [f"c{i}" for i in range(300)]
        cands = tuple(map(Candidate, ids))
        orders = [linear(*ids[i:], *ids[:i]) for i in (0, 299, 1, 256, 44)]
        sets = [approval(ids[i::j]) for i, j in ((0, 1), (299, 2), (1, 7), (3, 256))]
        for ballots in ([orders[i % 5] for i in range(41)], [sets[i * i % 4] for i in range(37)],
                        [approval([])] * 3, []):
            prof = Profile(cands, ballots)
            assert prof.supporters == tuple(definition(prof, c) for c in range(300))


class TestMargins:
    def test_margin_antisymmetric(self):
        prof = profile("p", "a", "b")
        assert majority_margin(prof, "p", "a") == -majority_margin(prof, "a", "p")

    def test_margin_values(self):
        # 2x p>a>b, 1x b>a>p
        prof = Profile(PAB, (linear("p", "a", "b"), linear("p", "a", "b"),
                             linear("b", "a", "p")))
        assert majority_margin(prof, "p", "a") == 1
        assert majority_margin(prof, "p", "b") == 1
        assert majority_margin(prof, "a", "b") == 1

    def test_margin_needs_distinct_candidates(self):
        with pytest.raises(ValueError):
            majority_margin(profile("p"), "p", "p")

    def test_restriction_preserves_margins(self):
        prof = profile("p", "a", "a", "b")
        sub = restrict_profile(prof, {"p", "a"})
        assert majority_margin(sub, "p", "a") == majority_margin(prof, "p", "a")

    def test_margin_table_covers_all_pairs(self):
        table = pairwise_margins(profile("p", "b"))
        assert set(table) == {(x, y) for x in "pab" for y in "pab" if x != y}


class TestRestriction:
    def test_linear_restriction_keeps_relative_order(self):
        prof = Profile(PAB, (linear("b", "p", "a"),))
        sub = restrict_profile(prof, {"p", "a"})
        assert sub.ballots[0].order == ("p", "a")

    def test_approval_restriction_intersects(self):
        prof = Profile(PAB, (approval(["p", "b"]),))
        sub = restrict_profile(prof, {"p", "a"})
        assert sub.ballots[0].approvals == frozenset({"p"})

    def test_restriction_errors(self):
        with pytest.raises(ValueError):
            restrict_profile(profile("p"), set())
        with pytest.raises(ValueError):
            restrict_profile(profile("p"), {"z"})

    def test_full_restriction_is_identity(self):
        prof = profile("p", "a")
        assert restrict_profile(prof, {"p", "a", "b"}) is prof


class TestWinners:
    def test_plurality_winner_and_tie(self):
        assert winners(VotingRule.PLURALITY, profile("p", "p", "a")) == {"p"}
        assert winners(VotingRule.PLURALITY, profile("p", "a")) == {"p", "a"}

    def test_approval_winner(self):
        prof = Profile(PAB, (approval(["p"]), approval(["p", "a"])))
        assert winners(VotingRule.APPROVAL, prof) == {"p"}

    def test_condorcet_strict_majority(self):
        # p beats a 2-1 and b 2-1: strict Condorcet winner.
        prof = Profile(PAB, (linear("p", "a", "b"), linear("p", "b", "a"),
                             linear("a", "b", "p")))
        assert winners(VotingRule.CONDORCET, prof) == {"p"}
        assert winners(VotingRule.WEAK_CONDORCET, prof) == {"p"}

    def test_condorcet_tie_elects_nobody_weak_both(self):
        prof = Profile(PAB, (linear("p", "a", "b"), linear("a", "p", "b")))
        assert winners(VotingRule.CONDORCET, prof) == frozenset()
        assert winners(VotingRule.WEAK_CONDORCET, prof) == {"p", "a"}

    def test_single_candidate_wins(self):
        solo = Profile((Candidate("p"),), (linear("p"),))
        for rule in (VotingRule.PLURALITY, VotingRule.CONDORCET,
                     VotingRule.WEAK_CONDORCET):
            assert winners(rule, solo) == {"p"}
        solo_a = Profile((Candidate("p"),), (approval(["p"]),))
        assert winners(VotingRule.APPROVAL, solo_a) == {"p"}

    def test_empty_electorate_conventions(self):
        empty = Profile(PAB)
        assert winners(VotingRule.PLURALITY, empty) == {"p", "a", "b"}
        assert winners(VotingRule.APPROVAL, empty) == {"p", "a", "b"}
        assert winners(VotingRule.CONDORCET, empty) == frozenset()
        assert winners(VotingRule.WEAK_CONDORCET, empty) == {"p", "a", "b"}


def e_profile(special_indices, nonspecial, ballots):
    cands = tuple(Candidate(f"s{i}", i) for i in special_indices)
    cands += tuple(Candidate(c) for c in nonspecial)
    return Profile(cands, tuple(approval(a) for a in ballots))


class TestSystemE:
    """The four-branch artificial rule, one hand-worked case per branch."""

    def test_small_with_paired_specials_02(self):
        prof = e_profile((0, 2), ("x",), [["x"], ["x"]])
        assert winners(VotingRule.SYSTEM_E, prof) == {"x"}

    def test_small_with_paired_specials_13(self):
        prof = e_profile((1, 3), ("x", "y"), [["x"], ["x"], ["y"]])
        assert winners(VotingRule.SYSTEM_E, prof) == {"x"}

    def test_small_with_wrong_special_pair(self):
        prof = e_profile((0, 1), ("x",), [["x"]])
        assert winners(VotingRule.SYSTEM_E, prof) == frozenset()

    def test_small_without_nonspecials(self):
        prof = e_profile((1, 3), (), [[], []])
        assert winners(VotingRule.SYSTEM_E, prof) == frozenset()

    def test_small_no_specials_at_all(self):
        prof = e_profile((), ("x", "y"), [["x"]])
        assert winners(VotingRule.SYSTEM_E, prof) == frozenset()

    def test_small_tied_nonspecials(self):
        prof = e_profile((0, 2), ("x", "y"), [["x"], ["y"]])
        assert winners(VotingRule.SYSTEM_E, prof) == {"x", "y"}

    def test_large_voter_count_mod_0(self):
        prof = e_profile((0, 1, 2, 3), ("x",), [["x"]] * 4)
        assert winners(VotingRule.SYSTEM_E, prof) == {"s0", "x"}

    def test_large_voter_count_mod_1(self):
        prof = e_profile((0, 1, 2, 3), ("x",), [["x"]] * 5)
        assert winners(VotingRule.SYSTEM_E, prof) == {"s1", "x"}

    def test_large_voter_count_mod_2_tied_sub(self):
        prof = e_profile((0, 1, 2, 3), ("x", "y"), [["x"], ["y"]])
        assert winners(VotingRule.SYSTEM_E, prof) == {"s2"}

    def test_large_voter_count_mod_3(self):
        prof = e_profile((0, 1, 2, 3), ("x", "y"), [["x"], ["x"], ["y"]])
        assert winners(VotingRule.SYSTEM_E, prof) == {"s3", "x"}

    def test_large_missing_one_special(self):
        prof = e_profile((0, 1, 2), ("x", "y"), [["x"]])
        assert winners(VotingRule.SYSTEM_E, prof) == frozenset()

    def test_large_empty_electorate(self):
        prof = e_profile((0, 1, 2, 3), ("x",), [])
        assert winners(VotingRule.SYSTEM_E, prof) == {"s0", "x"}

    def test_votes_decide_branch_and_nonspecial_winner(self):
        # Only the voting ballots count: the third ballot alone is one voter
        # (mod 4 = 1), and it approves y.
        def elect(prof, votes):
            return _mask_ids(prof, _elect(VotingRule.SYSTEM_E, prof, prof.everyone, votes))
        prof = e_profile((0, 1, 2, 3), ("x", "y"), [["x"], ["x"], ["y"]])
        assert elect(prof, 0b100) == {"s1", "y"}
        prof = e_profile((0, 2), ("x", "y"), [["x"], ["x"], ["y"]])
        assert elect(prof, 0b100) == {"y"}
