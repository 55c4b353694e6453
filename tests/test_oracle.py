"""Unit tests for the exhaustive-enumeration oracle."""

import random
import signal
from itertools import combinations, product
from math import comb

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
    enumerate_equipartitions,
    linear,
    oracle_solve,
    verify_witness,
)
from electctl import oracle
from electctl.generate import random_instance
from electctl.oracle import _bipartitions, _candidate_witnesses, _k_partitions
from electctl.two_stage import TAKES, _public_witness
from pab import PAB, members, profile


class TestEnumeration:
    def test_equipartition_counts(self):
        # even n: unordered halves, element 0 pinned -> C(n, n/2)/2;
        # odd n: C(n, ceil(n/2)) distinct size splits.
        expected = {0: 1, 1: 1, 2: 1, 3: 3, 4: 3, 5: 10, 6: 10, 8: 35}
        for n, count in expected.items():
            parts = list(enumerate_equipartitions(n))
            assert len(parts) == count, n
            for v1, v2 in parts:
                assert sorted(v1 + v2) == list(range(n))
                assert abs(len(v1) - len(v2)) <= 1

    def test_equipartition_of_a_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_equipartitions(-1)

    def test_equipartition_count_formula(self):
        assert len(list(enumerate_equipartitions(10))) == comb(10, 5) // 2

    def test_bipartition_count(self):
        for n in range(1, 7):
            parts = list(_bipartitions(n))
            assert len(parts) == 2 ** (n - 1)
            assert len(set(parts)) == len(parts)

    def test_k_partition_counts(self):
        # ordered-part-irrelevant partitions into at most k blocks, padded
        # with empty parts; counts follow restricted growth strings.
        assert len(list(_k_partitions(3, 2))) == 4   # {123}, {1|23}, {12|3}, {13|2}
        assert len(list(_k_partitions(3, 3))) == 5   # Bell(3)
        assert len(list(_k_partitions(0, 2))) == 1
        for parts in _k_partitions(4, 3):
            assert len(parts) == 3
            assert sorted(i for p in parts for i in members(p)) == list(range(4))


def with_complement(n, firsts):
    return [(f, tuple(i for i in range(n) if i not in f)) for f in firsts]


def ref_bipartitions(n):
    """Element 0 pinned into the first part, which grows from {0}."""
    if n == 0:
        return [((), ())]
    return with_complement(n, [(0,) + c for r in range(n)
                               for c in combinations(range(1, n), r)])


def ref_equipartitions(n):
    """Even n pins element 0 into the first half; odd n lets the larger
    part range over all ceil(n/2)-subsets."""
    hi = (n + 1) // 2
    if n % 2 == 0 and n > 0:
        firsts = [(0,) + c for c in combinations(range(1, n), hi - 1)]
    else:
        firsts = list(combinations(range(n), hi))
    return with_complement(n, firsts)


def all_subsets(items):
    return [c for r in range(len(items) + 1) for c in combinations(items, r)]


def witnesses(inst):
    """The oracle's witnesses for ``inst``, in its order, as the objects it
    would return."""
    return [_public_witness(inst, w) for w in _candidate_witnesses(inst)]


class TestEnumerationOrder:
    """The oracle's witness order is part of its output contract: it fixes
    the returned witness and the case counts."""

    def voter_instance(self, problem, n):
        return ControlInstance(problem=problem, rule=VotingRule.PLURALITY,
                               profile=profile(*["a"] * n), p="p", tie=TieRule.TE)

    def test_voter_partitions(self):
        for n in range(6):
            got = witnesses(self.voter_instance(Problem.CCPV, n))
            assert got == [VoterPartition(parts) for parts in ref_bipartitions(n)], n
            got = witnesses(self.voter_instance(Problem.CCEPV, n))
            assert got == [VoterPartition(parts) for parts in ref_equipartitions(n)], n

    def test_candidate_partitions(self):
        for m in range(1, 6):
            ids = ("p",) + tuple(f"c{i}" for i in range(1, m))
            prof = Profile(tuple(Candidate(c) for c in ids), (linear(*ids),))
            for problem, ref in ((Problem.CCRPC, ref_bipartitions),
                                 (Problem.CCREPC, ref_equipartitions)):
                inst = ControlInstance(problem=problem, rule=VotingRule.CONDORCET,
                                       profile=prof, p="p", tie=TieRule.TE)
                want = [CandidatePartition({ids[i] for i in a}, {ids[i] for i in b})
                        for a, b in ref(m)]
                assert witnesses(inst) == want, (problem, m)

    def test_k_partitions_follow_restricted_growth_strings(self):
        # Element i goes to part labels[i], for the lexicographically ordered
        # label strings in which each label is at most one above all before it.
        for n in range(7):
            for k in (2, 3):
                want = []
                for labels in product(range(k), repeat=n):
                    if all(lab <= max(labels[:i], default=-1) + 1
                           for i, lab in enumerate(labels)):
                        want.append(tuple(tuple(i for i in range(n) if labels[i] == part)
                                          for part in range(k)))
                got = [tuple(map(members, parts)) for parts in _k_partitions(n, k)]
                assert got == want, (n, k)

    def test_ccpvg_selects_among_all_but_the_first_group(self):
        for n_groups in range(5):
            labels = [f"g{i}" for i in range(n_groups)]
            inst = ControlInstance(problem=Problem.CCPVG, rule=VotingRule.PLURALITY,
                                   profile=profile(*["a"] * n_groups), p="p",
                                   tie=TieRule.TE, labels=labels)
            want = [GroupSelection(c) for c in all_subsets(labels[1:])]
            assert witnesses(inst) == want, n_groups
            if n_groups == 0:
                assert want == [GroupSelection(frozenset())]

    def test_group_deletion_and_addition_respect_the_limit(self):
        labels = ("g1", "g1", "g2", "g3", "g3", "g4")
        sizes = {lab: labels.count(lab) for lab in labels}
        for limit in range(7):
            want = [GroupSelection(c) for c in all_subsets(list(sizes))
                    if sum(sizes[lab] for lab in c) <= limit]
            deletion = ControlInstance(
                problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
                profile=profile(*["a"] * 6), p="p", limit=limit, labels=labels)
            addition = ControlInstance(
                problem=Problem.CCAVG, rule=VotingRule.PLURALITY,
                profile=profile("a"), p="p", limit=limit, labels=labels,
                pool=profile(*["p"] * 6))
            assert witnesses(deletion) == want, limit
            assert witnesses(addition) == want, limit


class TestOracle:
    def test_yes_with_verifying_witness(self):
        inst = ControlInstance(problem=Problem.CCEPV, rule=VotingRule.PLURALITY,
                               profile=profile("p", "p", "a", "a", "b"),
                               p="p", tie=TieRule.TE)
        d = oracle_solve(inst)
        assert d.answer == "yes"
        assert verify_witness(inst, d.witness)
        assert d.stats["cases"] >= 1

    def test_no_reports_case_count(self):
        inst = ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                               profile=profile("a", "a", "a", "p"),
                               p="p", tie=TieRule.TE)
        d = oracle_solve(inst)
        assert d.answer == "no"
        assert d.witness is None
        assert d.stats["cases"] == 2 ** 3  # all unordered bipartitions of 4 ballots

    def test_worked_example_case_count(self):
        prof = profile(*(["p"] * 5 + ["a"] * 6 + ["b"] * 3))
        inst = ControlInstance(problem=Problem.CCEPV, rule=VotingRule.PLURALITY,
                               profile=prof, p="p", tie=TieRule.TE)
        d = oracle_solve(inst)
        assert (d.answer, d.stats["cases"]) == ("yes", 37)

    def test_budget_exhaustion_yields_unknown(self):
        prof = profile(*(["a"] * 12 + ["p"] * 2))
        inst = ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                               profile=prof, p="p", tie=TieRule.TE)
        d = oracle_solve(inst, budget=5)
        assert d.answer == "unknown"
        assert d.stats["budget"] == 5

    def test_negative_budget_is_an_error(self):
        prof = profile("p", "p", "a")
        inst = ControlInstance(problem=Problem.CCEPV, rule=VotingRule.PLURALITY,
                               profile=prof, p="p", tie=TieRule.TE)
        with pytest.raises(ValueError, match="budget"):
            oracle_solve(inst, budget=-5)
        d = oracle_solve(inst, budget=0)  # no witness may be examined
        assert (d.answer, d.stats["cases"]) == ("unknown", 0)
        assert oracle_solve(inst).answer == "yes"

    def test_candidate_partition_problems(self):
        prof = Profile(PAB, (linear("a", "p", "b"), linear("a", "p", "b"),
                             linear("p", "b", "a"), linear("b", "p", "a"),
                             linear("p", "a", "b")))
        frozen = {
            (Problem.CCRPC, TieRule.TE): ("yes", frozenset({"p"})),
            (Problem.CCRPC, TieRule.TP): ("yes", frozenset({"p"})),
            (Problem.CCREPC, TieRule.TE): ("yes", frozenset({"p", "a"})),
            (Problem.CCREPC, TieRule.TP): ("yes", frozenset({"p", "a"})),
        }
        for (problem, tie), (answer, c1) in frozen.items():
            inst = ControlInstance(problem=problem, rule=VotingRule.CONDORCET,
                                   profile=prof, p="p", tie=tie)
            d = oracle_solve(inst)
            assert d.answer == answer
            assert d.witness.c1 == c1
            assert verify_witness(inst, d.witness)

    def test_group_problems(self):
        inst = ControlInstance(
            problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
            profile=profile("p", "p", "a", "b", "a"), p="p", limit=1,
            labels=("g1", "g1", "g2", "g2", "g3"))
        d = oracle_solve(inst)
        assert d.answer == "yes"
        assert d.witness.labels == frozenset({"g3"})

        add = ControlInstance(
            problem=Problem.CCAVG, rule=VotingRule.PLURALITY,
            profile=profile("p", "a", "b"), p="p", limit=1,
            labels=("h1", "h1", "h2"), pool=profile("p", "p", "p"))
        d = oracle_solve(add)
        assert d.answer == "yes"
        assert d.witness.labels == frozenset({"h2"})

    @pytest.mark.parametrize("problem", [Problem.CCDVG, Problem.CCAVG])
    def test_group_walk_stops_past_the_limit(self, problem):
        # 30 singleton groups hold 2^30 subsets, but only those of at most
        # one group fit limit 1. 600 groups of two ballots fit limit 2 one
        # at a time: the walk sums the sizes of their 179,700 pairs, but must
        # not go on to their 3.6 * 10^7 triples, more groups than the limit.
        # The alarm fails a walk past them instead of letting it run on.
        def stop(signum, frame):
            raise TimeoutError("the group walk ran past the limit")

        for n, size in (30, 1), (600, 2):  # at limit = size one group fits, no two
            labels = [f"g{i}" for i in range(n) for _ in range(size)]
            if problem is Problem.CCDVG:  # deleting a group leaves p behind the "a" ballots
                extra = {"profile": profile(*["a"] * n * size)}
            else:  # adding a group's "p" ballots to size + 1 "a" ballots is not enough
                extra = {"profile": profile(*["a"] * (size + 1)),
                         "pool": profile(*["p"] * n * size)}
            inst = ControlInstance(problem=problem, rule=VotingRule.PLURALITY, p="p",
                                   limit=size, labels=labels, **extra)
            previous = signal.signal(signal.SIGALRM, stop)
            signal.alarm(5)
            try:
                d = oracle_solve(inst)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            assert d.answer == "no"
            assert d.stats["cases"] == 1 + n  # no group, or any one of them

    def test_every_returned_witness_verifies(self):
        # spot-check one instance per problem family
        prof = profile("p", "p", "a", "a", "b")
        labels = ("g1", "g1", "g2", "g2", "g3")
        instances = [
            ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                            profile=prof, p="p", tie=TieRule.TE),
            ControlInstance(problem=Problem.CCEPV, rule=VotingRule.PLURALITY,
                            profile=prof, p="p", tie=TieRule.TP),
            ControlInstance(problem=Problem.CCPKV, rule=VotingRule.PLURALITY,
                            profile=prof, p="p", tie=TieRule.TE, k=3),
            ControlInstance(problem=Problem.CCPVG, rule=VotingRule.PLURALITY,
                            profile=prof, p="p", tie=TieRule.TE, labels=labels),
        ]
        for inst in instances:
            d = oracle_solve(inst)
            if d.answer == "yes":
                assert verify_witness(inst, d.witness), inst.problem

    @pytest.mark.parametrize("tie", list(TieRule))
    @pytest.mark.parametrize("rule", [VotingRule.PLURALITY, VotingRule.WEAK_CONDORCET])
    def test_k_partitions_past_the_ballot_count(self, rule, tie):
        # Past n parts the oracle keeps one empty part for all the empty
        # ones. Under weakCondorcet-TP it promotes every candidate: on the
        # last profile p beats every other ballot's top but loses to a,
        # which tops none, so with that part every witness fails. The
        # answer, witness and cases are those of the k-part witnesses.
        pabc = tuple(map(Candidate, "pabc"))
        profiles = [profile(*tops) for n in range(4) for tops in product("pab", repeat=n)]
        profiles.append(Profile(pabc, tuple(linear(*o) for o in ("capb", "pbca", "bapc"))))
        for prof in profiles:
            n = len(prof.ballots)
            for k in (max(n + 1, 2), n + 3):
                inst = ControlInstance(problem=Problem.CCPKV, rule=rule,
                                       profile=prof, p="p", tie=tie, k=k)
                parts = [VoterPartition(map(members, w)) for w in _k_partitions(n, k)]
                first = next((i for i, w in enumerate(parts, 1)
                              if verify_witness(inst, w)), None)
                d = oracle_solve(inst)
                assert d.stats["cases"] == (first or len(parts)), (prof, k)
                assert d.witness == (first and parts[first - 1]), (prof, k)


@pytest.mark.parametrize("problem", list(Problem), ids=lambda p: p.value)
def test_a_no_calls_verify_witness_once_per_case(problem, monkeypatch):
    # The oracle hands each witness it examines to verify_witness once, so
    # a "no" makes exactly ``cases`` calls; a tracer that counts replays by
    # wrapping verify_witness relies on it.
    takes, rng = TAKES[problem], random.Random(problem.value)
    while True:
        inst = random_instance(
            rng, problem, VotingRule.PLURALITY, TieRule.TE if "tie" in takes else None,
            n_candidates=4, n_voters=5, k=3 if "k" in takes else None,
            limit=2 if "limit" in takes else None, pool_size=4 if "pool" in takes else None)
        d = oracle_solve(inst)
        if d.answer == "no" and d.stats["cases"] > 1:
            break
    calls = []
    real = oracle.verify_witness
    monkeypatch.setattr(oracle, "verify_witness",
                        lambda instance, w: calls.append(w) or real(instance, w))
    assert oracle_solve(inst) == d
    assert len(calls) == d.stats["cases"]
