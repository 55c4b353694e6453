"""Unit tests for two-stage partition elections and witness verification."""

import gc
import random
import weakref
from dataclasses import replace
from itertools import product

import pytest

from electctl import (
    Candidate,
    CandidatePartition,
    ControlInstance,
    GroupSelection,
    Problem,
    Profile,
    TieRule,
    VoterPartition,
    VotingRule,
    approval,
    finalists_voter_partition,
    linear,
    run_two_stage_candidate_partition,
    run_two_stage_voter_partition,
    verify_witness,
)
from electctl.generate import random_instance
from electctl.instance_io import parse_instance, serialize_instance, witness_to_dict
from electctl.oracle import _candidate_witnesses, oracle_solve
from electctl.two_stage import TAKES, _compile, _replay
from pab import PAB, lex, profile


class TestInstanceValidation:
    def test_distinguished_candidate_must_exist(self):
        with pytest.raises(ValueError):
            ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                            profile=profile("p"), p="z", tie=TieRule.TE)

    def test_partition_problems_need_tie_rule(self):
        with pytest.raises(ValueError):
            ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                            profile=profile("p"), p="p")

    def test_group_problems_take_no_tie_rule(self):
        with pytest.raises(ValueError):
            ControlInstance(problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
                            profile=profile("p"), p="p", tie=TieRule.TE,
                            limit=1, labels=("g",))

    def test_ccpkv_needs_k_at_least_two(self):
        for bad_k in (None, 0, 1):
            with pytest.raises(ValueError):
                ControlInstance(problem=Problem.CCPKV, rule=VotingRule.PLURALITY,
                                profile=profile("p"), p="p", tie=TieRule.TE, k=bad_k)

    def test_k_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                            profile=profile("p"), p="p", tie=TieRule.TE, k=2)

    def test_deletion_needs_limit_and_groups(self):
        with pytest.raises(ValueError):
            ControlInstance(problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
                            profile=profile("p"), p="p", labels=("g",))
        with pytest.raises(ValueError):
            ControlInstance(problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
                            profile=profile("p"), p="p", limit=1)

    def test_groups_must_partition_exactly(self):
        # One label per grouped ballot puts each ballot in exactly one group.
        for bad in ((), ("g",), ("g", "h", "g")):
            with pytest.raises(ValueError, match="one group label"):
                ControlInstance(problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
                                profile=profile("p", "a"), p="p", limit=1, labels=bad)
        pool = profile("p", "a", "b")
        with pytest.raises(ValueError, match="one group label"):  # the pool is grouped
            ControlInstance(problem=Problem.CCAVG, rule=VotingRule.PLURALITY,
                            profile=profile("p"), p="p", limit=1, labels=("g",), pool=pool)

    def test_labels_must_not_be_one_string(self):
        # A bare string is a sequence of one-character strings: "gh" would
        # silently label the two ballots g and h.
        with pytest.raises(ValueError, match="not a string"):
            ControlInstance(problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
                            profile=profile("p", "a"), p="p", limit=1, labels="gh")

    def test_labels_must_be_strings(self):
        # A label that is not a string would write a document that cannot
        # be read back.
        for bad in ((1, 2), ("g", None), ("g", b"h")):
            with pytest.raises(ValueError, match="must be a string"):
                ControlInstance(problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
                                profile=profile("p", "a"), p="p", limit=1, labels=bad)

    def test_equal_labels_form_one_group(self):
        inst = ControlInstance(problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
                               profile=profile("p", "a", "b"), p="p", limit=1,
                               labels=("g", "h", "g"))
        assert inst.groups == (("g", (0, 2)), ("h", (1,)))

    def test_ccavg_needs_pool_on_same_candidates(self):
        with pytest.raises(ValueError):
            ControlInstance(problem=Problem.CCAVG, rule=VotingRule.PLURALITY,
                            profile=profile("p"), p="p", limit=1, labels=("g",))
        other = Profile((Candidate("p"), Candidate("a")), (linear("p", "a"),))
        with pytest.raises(ValueError):
            ControlInstance(problem=Problem.CCAVG, rule=VotingRule.PLURALITY,
                            profile=profile("p"), p="p", limit=1, labels=("g",), pool=other)

    def test_groups_rejected_for_plain_partition(self):
        with pytest.raises(ValueError):
            ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                            profile=profile("p"), p="p", tie=TieRule.TE, labels=("g",))

    def test_labels_accept_any_sequence(self):
        kw = dict(problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
                  profile=profile("p", "a"), p="p", limit=1)
        inst = ControlInstance(labels=["g", "h"], **kw)
        assert inst.labels == ("g", "h") and inst == ControlInstance(labels=("g", "h"), **kw)
        assert inst.groups == (("g", (0,)), ("h", (1,)))

    def test_groups_are_listed_as_their_document_reads_back(self):
        # h's first ballot precedes g's. Deleting g (an "a" ballot) leaves
        # p the sole winner; deleting h does not. The oracle tries {} then
        # {h} then {g}.
        inst = ControlInstance(problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
                               profile=profile("a", "a", "p", "p"), p="p", limit=2,
                               labels=("h", "g", "f", "h"))
        assert inst.groups == (("h", (0, 3)), ("g", (1,)), ("f", (2,)))
        back = parse_instance(serialize_instance(inst))
        assert back == inst
        mine, theirs = oracle_solve(inst), oracle_solve(back)
        assert mine.witness == theirs.witness == GroupSelection({"g"})
        assert mine.stats["cases"] == theirs.stats["cases"] == 3


# The optional fields each problem takes, written out independently of the
# table in two_stage, with one valid value per field. The election and the
# pool both hold two ballots, so the labels are valid for either.
TAKEN_FIELDS = {
    Problem.CCPV: {"tie"},
    Problem.CCEPV: {"tie"},
    Problem.CCRPC: {"tie"},
    Problem.CCREPC: {"tie"},
    Problem.CCPKV: {"tie", "k"},
    Problem.CCPVG: {"tie", "labels"},
    Problem.CCDVG: {"limit", "labels"},
    Problem.CCAVG: {"limit", "labels", "pool"},
}
FIELD_VALUES = {"tie": TieRule.TE, "k": 2, "limit": 1,
                "labels": ("g", "h"), "pool": profile("a", "b")}


# Each case is named after its field, the group labels' case "groups".
@pytest.mark.parametrize("field", FIELD_VALUES,
                         ids=lambda f: "groups" if f == "labels" else f)
@pytest.mark.parametrize("problem", list(Problem), ids=lambda p: p.value)
def test_instance_needs_exactly_the_fields_its_problem_takes(problem, field):
    # Adding or dropping one field is an error exactly when the field's
    # presence disagrees with the problem.
    taken = TAKEN_FIELDS[problem]
    for present in (True, False):
        fields = {name: FIELD_VALUES[name] for name in taken}
        fields.pop(field, None)
        if present:
            fields[field] = FIELD_VALUES[field]

        def build():
            return ControlInstance(problem=problem, rule=VotingRule.PLURALITY,
                                   profile=profile("p", "a"), p="p", **fields)

        if present == (field in taken):
            build()
        else:
            with pytest.raises(ValueError):
                build()


def test_voter_partition_normalizes_its_parts():
    # Each part becomes a sorted tuple, an empty one the empty tuple, and the
    # parts keep their order, empty ones included.
    w = VoterPartition(([3, 1, 2], (), (5, 4), [], (0,)))
    assert w.parts == ((1, 2, 3), (), (4, 5), (), (0,))
    assert all(type(part) is tuple for part in w.parts)
    assert w == VoterPartition(((1, 2, 3), [], [4, 5], (), [0]))
    assert w != VoterPartition(((1, 2, 3), (4, 5), (), (), (0,)))
    assert witness_to_dict(w)["witness"]["parts"] == [[1, 2, 3], [], [4, 5], [], [0]]


class TestVoterPartitionStages:
    def test_worked_example_partition(self):
        # 5 votes for p, 6 for a, 3 for b; V1 = 4 p-votes and 3 a-votes.
        prof = profile(*(["p"] * 5 + ["a"] * 6 + ["b"] * 3))
        v1 = (0, 1, 2, 3, 5, 6, 7)
        v2 = (4, 8, 9, 10, 11, 12, 13)
        finalists = finalists_voter_partition(
            VotingRule.PLURALITY, TieRule.TE, prof, (v1, v2))
        assert finalists == {"p"}
        final = run_two_stage_voter_partition(
            VotingRule.PLURALITY, TieRule.TE, prof, (v1, v2))
        assert final == {"p"}

    def test_te_drops_tied_subelection_tp_keeps_it(self):
        prof = profile("p", "a", "b", "b")
        parts = ((0, 1), (2, 3))  # part one ties p/a, part two elects b
        te = finalists_voter_partition(VotingRule.PLURALITY, TieRule.TE, prof, parts)
        tp = finalists_voter_partition(VotingRule.PLURALITY, TieRule.TP, prof, parts)
        assert te == {"b"}
        assert tp == {"p", "a", "b"}

    def test_no_finalists_means_no_winner(self):
        prof = profile("p", "a", "b", "b", "p", "a")
        parts = ((0, 1), (2, 4), (3, 5))  # every part is a two-way tie
        assert run_two_stage_voter_partition(
            VotingRule.PLURALITY, TieRule.TE, prof, parts) == frozenset()

    def test_final_round_uses_all_voters(self):
        # b wins its part, p wins the other; all six voters then rank the
        # finalists, and a's supporters break the final toward b.
        prof = Profile(PAB, (lex("p"), lex("p"), lex("b"), lex("b"),
                             linear("a", "b", "p"), linear("a", "b", "p")))
        parts = ((0, 1, 4), (2, 3, 5))
        assert run_two_stage_voter_partition(
            VotingRule.PLURALITY, TieRule.TE, prof, parts) == {"b"}

    def test_bad_parts_raise(self):
        prof = profile("p", "a")
        for bad in (((0,), (0, 1)), ((0,), ()), ((0, 1), (2,))):
            with pytest.raises(ValueError):
                finalists_voter_partition(VotingRule.PLURALITY, TieRule.TE, prof, bad)

    def test_empty_part_contributes_nothing(self):
        prof = profile("p", "p")
        assert run_two_stage_voter_partition(
            VotingRule.PLURALITY, TieRule.TE, prof, ((0, 1), ())) == {"p"}


class TestCandidatePartitionStages:
    # 5 linear ballots: p is a weak Condorcet winner but not a strict one.
    PROF = Profile(PAB, (linear("a", "p", "b"), linear("a", "p", "b"),
                         linear("p", "b", "a"), linear("b", "p", "a"),
                         linear("p", "a", "b")))

    def test_protective_singleton_partition(self):
        final = run_two_stage_candidate_partition(
            VotingRule.WEAK_CONDORCET, TieRule.TP, self.PROF, {"p"}, {"a", "b"})
        assert final == {"p"}

    def test_strict_condorcet_partition(self):
        final = run_two_stage_candidate_partition(
            VotingRule.CONDORCET, TieRule.TE, self.PROF, {"p"}, {"a", "b"})
        assert final == {"p"}

    def test_empty_side_is_legal(self):
        final = run_two_stage_candidate_partition(
            VotingRule.PLURALITY, TieRule.TE, profile("p", "p", "a"),
            set(), {"p", "a", "b"})
        assert final == {"p"}

    def test_non_partition_raises(self):
        with pytest.raises(ValueError):
            run_two_stage_candidate_partition(
                VotingRule.PLURALITY, TieRule.TE, profile("p"), {"p"}, {"p", "a", "b"})
        with pytest.raises(ValueError):
            run_two_stage_candidate_partition(
                VotingRule.PLURALITY, TieRule.TE, profile("p"), {"p"}, {"a"})

    def test_condorcet_margin_path_matches_direct_run(self):
        # plurality path and Condorcet path agree with a hand computation:
        # a beats p 2-1 in {a,p}, then faces b with all three voters.
        prof = Profile(PAB, (linear("a", "p", "b"), linear("a", "b", "p"),
                             linear("p", "b", "a")))
        final = run_two_stage_candidate_partition(
            VotingRule.CONDORCET, TieRule.TE, prof, {"a", "p"}, {"b"})
        assert final == {"a"}


class TestVerifyWitness:
    def test_ccpv_witness_accepts(self):
        prof = profile(*(["p"] * 5 + ["a"] * 6 + ["b"] * 3))
        inst = ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                               profile=prof, p="p", tie=TieRule.TE)
        w = VoterPartition(((0, 1, 2, 3, 5, 6, 7), (4, 8, 9, 10, 11, 12, 13)))
        assert verify_witness(inst, w)

    def test_ccepv_rejects_unbalanced_parts(self):
        prof = profile("p", "p", "a", "b")
        inst = ControlInstance(problem=Problem.CCEPV, rule=VotingRule.PLURALITY,
                               profile=prof, p="p", tie=TieRule.TE)
        assert verify_witness(inst, VoterPartition(((0, 1, 2, 3), ()))) is False

    def test_wrong_witness_shape_is_an_error(self):
        inst = ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                               profile=profile("p"), p="p", tie=TieRule.TE)
        with pytest.raises(ValueError):
            verify_witness(inst, CandidatePartition({"p"}, {"a", "b"}))
        with pytest.raises(ValueError):
            verify_witness(inst, VoterPartition(((0,),)))
        with pytest.raises(ValueError):  # a bare tuple is not a compiled witness
            verify_witness(inst, ((0,), ()))
        rpc = ControlInstance(problem=Problem.CCRPC, rule=VotingRule.PLURALITY,
                              profile=profile("p"), p="p", tie=TieRule.TE)
        with pytest.raises(ValueError, match="candidate partition"):
            verify_witness(rpc, VoterPartition(((0,), ())))
        dvg = dict(problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
                   profile=profile("p"), p="p", labels=("g1",))
        with pytest.raises(ValueError, match="group selection"):
            verify_witness(ControlInstance(limit=1, **dvg), CandidatePartition({"p"}, {"a", "b"}))
        with pytest.raises(ValueError, match="nonnegative limit"):
            ControlInstance(limit=-1, **dvg)

    def test_ccrepc_rejects_unbalanced_candidate_split(self):
        inst = ControlInstance(problem=Problem.CCREPC, rule=VotingRule.PLURALITY,
                               profile=profile("p", "p", "a"), p="p", tie=TieRule.TE)
        assert verify_witness(inst, CandidatePartition(set(), {"p", "a", "b"})) is False

    def test_ccpkv_part_count_must_match_k(self):
        prof = profile("p", "p", "a", "a", "b")
        inst = ControlInstance(problem=Problem.CCPKV, rule=VotingRule.PLURALITY,
                               profile=prof, p="p", tie=TieRule.TE, k=3)
        assert verify_witness(inst, VoterPartition(((0,), (1, 2), (3, 4))))
        with pytest.raises(ValueError):
            verify_witness(inst, VoterPartition(((0, 1, 2), (3, 4))))

    def test_ccpvg_group_selection_and_atomic_partition(self):
        prof = profile("p", "p", "a", "a", "b")
        labels = ("g1", "g1", "g2", "g2", "g3")
        inst = ControlInstance(problem=Problem.CCPVG, rule=VotingRule.PLURALITY,
                               profile=prof, p="p", tie=TieRule.TE, labels=labels)
        sel = GroupSelection(frozenset({"g2"}))
        part = VoterPartition(((0, 1, 4), (2, 3)))
        assert verify_witness(inst, sel) == verify_witness(inst, part)
        # splitting a group across parts violates atomicity
        assert verify_witness(inst, VoterPartition(((0, 2), (1, 3, 4)))) is False
        with pytest.raises(ValueError):
            verify_witness(inst, GroupSelection(frozenset({"nope"})))

    def test_ccdvg_budget_and_outcome(self):
        prof = profile("p", "p", "a", "b", "a")
        labels = ("g1", "g1", "g2", "g2", "g3")
        inst = ControlInstance(problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
                               profile=prof, p="p", limit=1, labels=labels)
        assert verify_witness(inst, GroupSelection(frozenset({"g3"})))
        # g2 holds two ballots, exceeding the deletion budget
        assert verify_witness(inst, GroupSelection(frozenset({"g2"}))) is False

    def test_ccavg_adds_selected_pool_groups(self):
        prof = profile("p", "a", "b")
        pool = profile("p", "p", "p")
        inst = ControlInstance(problem=Problem.CCAVG, rule=VotingRule.PLURALITY,
                               profile=prof, p="p", limit=1,
                               labels=("h1", "h1", "h2"), pool=pool)
        assert verify_witness(inst, GroupSelection(frozenset({"h2"})))
        assert verify_witness(inst, GroupSelection(frozenset({"h1"}))) is False
        assert verify_witness(inst, GroupSelection(frozenset())) is False


# ------------------------------------------------------------ the accept test

def draw_instance(rng, problem, rule, tie):
    """A ``random_instance`` of 1-6 candidates (plus the four specials under
    system E) and 0-8 ballots whose distinguished candidate is any of them,
    so that p's side of a candidate partition is sometimes the second."""
    takes = TAKES[problem]
    inst = random_instance(
        rng, problem, rule, tie, n_candidates=rng.randint(1, 6), n_voters=rng.randint(0, 8),
        k=rng.randint(2, 4) if "k" in takes else None,
        limit=rng.randint(0, 4) if "limit" in takes else None,
        pool_size=rng.randint(0, 6) if "pool" in takes else None,
        with_specials=rule is VotingRule.SYSTEM_E)
    return replace(inst, p=rng.choice(inst.profile.candidate_ids))


def outside_witnesses(rng, inst):
    """Witnesses as from outside: candidate partitions with either side
    empty or random, random voter partitions (some unbalanced, some with
    empty parts, some splitting a CCPVG group) and group selections."""
    prob, ids = inst.problem, set(inst.profile.candidate_ids)
    if prob in (Problem.CCRPC, Problem.CCREPC):
        for c1 in (set(), ids, {c for c in ids if rng.random() < 0.5}):
            yield CandidatePartition(c1, ids - c1)
        return
    if inst.groups is not None:
        for _ in range(3):
            yield GroupSelection({lab for lab, _ in inst.groups if rng.random() < 0.5})
    if prob not in (Problem.CCDVG, Problem.CCAVG):
        size = inst.k if prob is Problem.CCPKV else 2
        for _ in range(3):
            parts = [[] for _ in range(size)]
            for i in range(len(inst.profile.ballots)):
                parts[rng.randrange(size)].append(i)
            yield VoterPartition(parts)


def test_accept_test_agrees_with_the_full_replay():
    # verify_witness stops as soon as p cannot reach the final; it must
    # still say what the full replay says, on every witness the oracle
    # enumerates and on witnesses from outside, for every problem, rule and
    # tie rule. One-candidate system-E finals and ballotless Condorcet
    # finals elect nobody, so a finalist set of p alone is no "yes".
    rng = random.Random("accept test")
    draws = 0
    for problem, rule in product(Problem, VotingRule):
        for tie in TieRule if "tie" in TAKES[problem] else (None,):
            for _ in range(8):
                inst = draw_instance(rng, problem, rule, tie)
                target = 1 << inst.profile.index[inst.p]
                for w in _candidate_witnesses(inst):
                    assert verify_witness(inst, w) == (_replay(inst, w)[1] == target), (inst, w)
                for w in outside_witnesses(rng, inst):
                    cw = _compile(inst, w)
                    want = cw is not None and _replay(inst, cw)[1] == target
                    assert verify_witness(inst, w) == want, (inst, w)
                draws += 1
    assert draws == 8 * 5 * (6 * 2 + 2)


def test_a_te_tie_on_p_side_promotes_nobody():
    # On p's side {p, a}, p and a have two first places each, so TE promotes
    # neither and b, promoted from {b}, wins; TP promotes both, and the
    # final among p, a and b elects p (two first places against one each).
    prof = Profile(PAB, (linear("p", "a", "b"), linear("p", "a", "b"),
                         linear("a", "b", "p"), linear("b", "a", "p")))
    for tie, want in ((TieRule.TE, False), (TieRule.TP, True)):
        inst = ControlInstance(problem=Problem.CCRPC, rule=VotingRule.PLURALITY,
                               profile=prof, p="p", tie=tie)
        for w in (CandidatePartition({"p", "a"}, {"b"}), CandidatePartition({"b"}, {"p", "a"})):
            assert verify_witness(inst, w) is want, (tie, w)


def test_accept_test_holds_no_reference_to_its_instance():
    # The accept test is cached on its instance; a reference back would
    # make a cycle that keeps the profile alive until a full collection.
    # Stage one differs by problem, rule and tie rule, so each is drawn.
    rng = random.Random("no cycle")
    gc.disable()
    try:
        for problem, rule in product(Problem, VotingRule):
            for tie in (TieRule.TE, TieRule.TP) if "tie" in TAKES[problem] else (None,):
                inst = draw_instance(rng, problem, rule, tie)
                oracle_solve(inst)
                assert "_accept" in vars(inst)
                ref = weakref.ref(inst)
                del inst
                assert ref() is None, (problem, rule, tie)
    finally:
        gc.enable()
