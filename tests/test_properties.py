"""Property-based invariants over randomly drawn profiles and partitions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electctl import (
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
    run_two_stage_candidate_partition,
    verify_witness,
    winners,
)
from electctl.elections import pairwise_margins
from electctl.generate import random_instance
from electctl.instance_io import instance_digest, parse_instance, serialize_instance
from electctl.two_stage import TAKES, finalists_voter_partition

IDS = ("p", "a", "b", "c")


@st.composite
def linear_profiles(draw, min_voters=1, max_voters=7, max_candidates=4):
    n_cands = draw(st.integers(2, max_candidates))
    ids = IDS[:n_cands]
    n_voters = draw(st.integers(min_voters, max_voters))
    orders = st.permutations(ids)
    ballots = tuple(linear(*draw(orders)) for _ in range(n_voters))
    return Profile(tuple(Candidate(c) for c in ids), ballots)


@st.composite
def profile_with_bipartition(draw):
    prof = draw(linear_profiles(min_voters=2))
    n = len(prof.ballots)
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    v1 = tuple(i for i in range(n) if side[i])
    v2 = tuple(i for i in range(n) if not side[i])
    return prof, (v1, v2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_margin_table_counts_each_pair_from_the_definition(data):
    ids = ("p", "a", "b", "c", "d")[:data.draw(st.integers(1, 5))]
    orders = data.draw(st.lists(st.permutations(ids), max_size=9))
    prof = Profile(tuple(Candidate(c) for c in ids), tuple(linear(*o) for o in orders))
    expected = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            for x, y in ((a, b), (b, a)):
                above = sum(o.index(x) < o.index(y) for o in orders)
                below = sum(o.index(y) < o.index(x) for o in orders)
                expected[(x, y)] = above - below
    # Keys, values and their order.
    assert list(pairwise_margins(prof).items()) == list(expected.items())


@settings(max_examples=120, deadline=None)
@given(linear_profiles(), st.data())
def test_restriction_preserves_margins(prof, data):
    ids = list(prof.candidate_ids)
    subset = data.draw(st.sets(st.sampled_from(ids), min_size=2))
    sub = restrict_profile(prof, subset)
    pairs = [(a, b) for a in subset for b in subset if a < b]
    for a, b in pairs:
        assert majority_margin(sub, a, b) == majority_margin(prof, a, b)


@settings(max_examples=120, deadline=None)
@given(linear_profiles())
def test_plurality_scores_partition_the_electorate(prof):
    from electctl import score_plurality

    scores = score_plurality(prof)
    assert sum(scores.values()) == len(prof.ballots)
    assert winners(VotingRule.PLURALITY, prof) <= frozenset(prof.candidate_ids)


@settings(max_examples=120, deadline=None)
@given(linear_profiles())
def test_condorcet_winners_nest_in_weak_condorcet(prof):
    strict = winners(VotingRule.CONDORCET, prof)
    weak = winners(VotingRule.WEAK_CONDORCET, prof)
    assert strict <= weak
    assert len(strict) <= 1


@settings(max_examples=120, deadline=None)
@given(profile_with_bipartition())
def test_te_finalists_nest_in_tp_finalists(prof_parts):
    prof, parts = prof_parts
    te = finalists_voter_partition(VotingRule.PLURALITY, TieRule.TE, prof, parts)
    tp = finalists_voter_partition(VotingRule.PLURALITY, TieRule.TP, prof, parts)
    assert te <= tp


@settings(max_examples=120, deadline=None)
@given(profile_with_bipartition())
def test_condorcet_te_equals_tp_finalists(prof_parts):
    # A Condorcet-style subelection never has two winners, so the tie rules
    # promote identical finalist sets.
    prof, parts = prof_parts
    te = finalists_voter_partition(VotingRule.CONDORCET, TieRule.TE, prof, parts)
    tp = finalists_voter_partition(VotingRule.CONDORCET, TieRule.TP, prof, parts)
    assert te == tp


@settings(max_examples=120, deadline=None)
@given(profile_with_bipartition())
def test_equipartition_witness_implies_classic_acceptance(prof_parts):
    prof, parts = prof_parts
    classic = ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                              profile=prof, p="p", tie=TieRule.TE)
    equi = ControlInstance(problem=Problem.CCEPV, rule=VotingRule.PLURALITY,
                           profile=prof, p="p", tie=TieRule.TE)
    w = VoterPartition(parts)
    if abs(len(parts[0]) - len(parts[1])) <= 1 and verify_witness(equi, w):
        assert verify_witness(classic, w)


@settings(max_examples=100, deadline=None)
@given(linear_profiles(min_voters=2), st.data())
def test_candidate_partition_winner_is_a_candidate(prof, data):
    ids = list(prof.candidate_ids)
    chosen = data.draw(st.sets(st.sampled_from(ids)))
    c1 = frozenset(chosen)
    c2 = frozenset(ids) - c1
    final = run_two_stage_candidate_partition(
        VotingRule.WEAK_CONDORCET, TieRule.TP, prof, c1, c2)
    assert final <= frozenset(ids)


@st.composite
def generated_instances(draw):
    """An instance of any problem, rule and tie rule, drawn through
    generate.random_instance; no voters and an empty pool included."""
    problem = draw(st.sampled_from(list(Problem)))
    rule = draw(st.sampled_from(list(VotingRule)))
    takes = TAKES[problem]
    return random_instance(
        random.Random(draw(st.integers(0, 2**32))), problem, rule,
        draw(st.sampled_from(list(TieRule))) if "tie" in takes else None,
        n_candidates=draw(st.integers(1, 4)),
        n_voters=draw(st.integers(0, 6)),
        k=draw(st.integers(2, 3)) if "k" in takes else None,
        limit=draw(st.integers(0, 3)) if "limit" in takes else None,
        pool_size=draw(st.integers(0, 6)) if "pool" in takes else None,
        with_specials=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(generated_instances())
def test_instance_serialization_round_trips(inst):
    back = parse_instance(serialize_instance(inst))
    assert back == inst
    assert instance_digest(back) == instance_digest(inst)


@st.composite
def rule_profile_subset(draw):
    """A rule, a profile of its ballot kind, a nonempty subset of the
    candidates, and a sub-multiset of the ballots (possibly empty).
    System-E profiles hold all four special candidates, so the subset
    decides which of its branches applies."""
    rule = draw(st.sampled_from(list(VotingRule)))
    if rule is VotingRule.SYSTEM_E:
        cands = tuple(Candidate(f"s{i}", i) for i in range(4))
        cands += tuple(Candidate(c) for c in IDS[:draw(st.integers(0, 3))])
    else:
        cands = tuple(Candidate(c) for c in IDS[:draw(st.integers(1, 4))])
    ids = [c.id for c in cands]
    n_voters = draw(st.integers(0, 9))
    if rule in (VotingRule.APPROVAL, VotingRule.SYSTEM_E):
        ballots = [approval(draw(st.sets(st.sampled_from(ids))))
                   for _ in range(n_voters)]
    else:
        ballots = [linear(*draw(st.permutations(ids))) for _ in range(n_voters)]
    among = draw(st.sets(st.sampled_from(ids), min_size=1))
    kept = draw(st.lists(st.booleans(), min_size=n_voters, max_size=n_voters))
    votes = tuple(b for b, keep in zip(ballots, kept) if keep)
    return rule, Profile(cands, tuple(ballots)), among, votes


@settings(max_examples=300, deadline=None)
@given(rule_profile_subset())
def test_winners_among_equals_restricted_election(case):
    rule, prof, among, votes = case
    assert winners(rule, prof, among) == winners(rule, restrict_profile(prof, among))
    assert (winners(rule, prof, among, votes)
            == winners(rule, Profile(prof.candidates, votes), among))


def test_winners_among_rejects_empty_or_unknown_subsets():
    prof = Profile(tuple(Candidate(c) for c in IDS[:2]), (linear("p", "a"),))
    for among in (set(), {"z"}, {"p", "z"}):
        with pytest.raises(ValueError):
            winners(VotingRule.PLURALITY, prof, among)
