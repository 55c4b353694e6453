"""Property-based invariants over randomly drawn profiles and partitions."""

import copy
import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    linear,
    majority_margin,
    replay,
    restrict_profile,
    run_two_stage_candidate_partition,
    run_two_stage_voter_partition,
    score_approval,
    score_plurality,
    verify_witness,
    winners,
)
from electctl.elections import (
    _elect,
    _id_mask,
    _mask_ids,
    condorcet_winners_from_margins,
    pairwise_margins,
)
from electctl.generate import random_instance
from electctl.instance_io import (
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    parse_instance,
    serialize_instance,
)
from electctl.oracle import (
    DEFAULT_BUDGET,
    _bipartitions,
    _candidate_witnesses,
    _k_partitions,
    _subsets,
    enumerate_equipartitions,
    oracle_solve,
)
from electctl.two_stage import (
    FINAL_MEMO_SIZE,
    MASK_SHARE,
    TAKES,
    _compile,
    _public_witness,
    _replay,
    final_round,
    finalists_voter_partition,
)
from pab import members

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


def reference_digest(inst):
    """The instance digest's definition: sha256 of the canonical document."""
    canonical = json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@settings(max_examples=300, deadline=None)
@given(generated_instances())
def test_digest_equals_its_definition(inst):
    assert instance_digest(inst) == reference_digest(inst)
    back = parse_instance(serialize_instance(inst))
    assert instance_digest(back) == reference_digest(back) == reference_digest(inst)


def ccavg_instance(ids, ranked, main, pool, labels):
    """A CCAVG instance over candidates ``ids``: ``main`` and ``pool`` are
    its ballots, and ``labels`` its pool's group labels."""
    return ControlInstance(
        problem=Problem.CCAVG,
        rule=VotingRule.CONDORCET if ranked else VotingRule.APPROVAL,
        profile=Profile(tuple(map(Candidate, ids)), tuple(main)), p=ids[0], limit=1,
        labels=list(labels), pool=Profile(tuple(map(Candidate, ids)), tuple(pool)))


@st.composite
def instances_with_any_ids(draw):
    """A CCAVG instance whose candidate ids and pool group labels are any
    strings (what JSON escapes included), ranked or approval ballots."""
    ids = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    names = draw(st.lists(st.text(max_size=4), min_size=1, max_size=3))
    ranked = draw(st.booleans())
    ballot = (st.permutations(ids).map(lambda order: linear(*order)) if ranked
              else st.sets(st.sampled_from(ids)).map(approval))
    main = draw(st.lists(ballot, max_size=4))
    pool = draw(st.lists(ballot, max_size=5))
    return ccavg_instance(ids, ranked, main, pool, [draw(st.sampled_from(names)) for _ in pool])


# The explicit examples: the id "" beside empty approval ballots (whose
# lists a join of ids would write alike), ids that JSON escapes, one
# candidate, and one ballot object repeated.
ESCAPED = ('"', "\\", "\n", "\u2028", "é", "\U0001F600")
REPEATED = linear("a", "b")


@settings(max_examples=200, deadline=None)
@given(instances_with_any_ids())
@example(ccavg_instance(("",), False, [approval([""]), approval([]), approval([""])],
                        [approval([]), approval([""])], ["", "g"]))
@example(ccavg_instance(("", "a"), False, [approval([]), approval(["", "a"])], [], []))
@example(ccavg_instance(ESCAPED, True, [linear(*ESCAPED), linear(*ESCAPED[::-1])],
                        [linear(*ESCAPED)], ['"\\']))
@example(ccavg_instance(ESCAPED, False, [approval(ESCAPED), approval([]), approval(ESCAPED[3:])],
                        [approval(ESCAPED[:2])], ["\u2028"]))
@example(ccavg_instance(("p",), True, [linear("p")] * 3, [linear("p")], ["g"]))
@example(ccavg_instance(("p",), False, [approval(["p"]), approval([])], [approval([])], ["g"]))
@example(ccavg_instance(("a", "b"), True, [REPEATED] * 3 + [linear("b", "a"), REPEATED],
                        [REPEATED] * 2, ["g", "g"]))
@example(ccavg_instance(("a", "b"), False, [approval(["a"])] * 2 + [approval([])] * 2, [], []))
def test_digest_equals_its_definition_for_any_ids_and_labels(inst):
    assert instance_digest(inst) == reference_digest(inst)
    assert instance_digest(parse_instance(serialize_instance(inst))) == reference_digest(inst)


@settings(max_examples=100, deadline=None)
@given(generated_instances(), st.data())
def test_a_count_reads_as_that_many_copies(inst, data):
    doc = instance_to_dict(inst)
    sections = [key for key in ("ballots", "pool") if doc.get(key)]
    if not sections:
        return
    key = data.draw(st.sampled_from(sections))
    i = data.draw(st.integers(0, len(doc[key]) - 1))
    counted, copied = copy.deepcopy(doc), copy.deepcopy(doc)
    counted[key][i]["count"] = 3
    copied[key][i + 1:i + 1] = [dict(doc[key][i]), dict(doc[key][i])]
    a, b = instance_from_dict(counted), instance_from_dict(copied)
    assert a == b
    assert instance_digest(a) == instance_digest(b) == reference_digest(b)
    assert oracle_solve(a).answer == oracle_solve(b).answer


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
    votes = sum(1 << i for i, keep in enumerate(kept) if keep)
    return rule, Profile(cands, tuple(ballots)), among, votes


def ballots_of(prof, mask):
    """The ballots of ``prof`` whose bits are set in ``mask``, in order."""
    return tuple(b for i, b in enumerate(prof.ballots) if mask >> i & 1)


@settings(max_examples=300, deadline=None)
@given(rule_profile_subset())
def test_winners_among_equals_restricted_election(case):
    rule, prof, among, votes = case
    assert winners(rule, prof, among) == winners(rule, restrict_profile(prof, among))
    voting = ballots_of(prof, votes)
    assert (_mask_ids(prof, _elect(rule, prof, _id_mask(prof, among), votes))
            == winners(rule, Profile(prof.candidates, voting), among))


@settings(max_examples=300, deadline=None)
@given(rule_profile_subset(), st.data())
def test_elect_on_a_ballot_mask_equals_the_election_of_its_ballots(case, data):
    # Any mask of the ballots, drawn as an int, votes as the profile of its
    # ballots does, and so does the index tuple of its ballots; None votes
    # as every ballot does.
    rule, prof, among, _ = case
    mask = data.draw(st.integers(0, (1 << len(prof.ballots)) - 1))
    between = _id_mask(prof, among)
    voting = winners(rule, Profile(prof.candidates, ballots_of(prof, mask)), among)
    assert _mask_ids(prof, _elect(rule, prof, between, mask)) == voting
    assert _mask_ids(prof, _elect(rule, prof, between, members(mask))) == voting
    assert _mask_ids(prof, _elect(rule, prof, between, None)) == winners(rule, prof, among)


def test_winners_among_rejects_empty_or_unknown_subsets():
    prof = Profile(tuple(Candidate(c) for c in IDS[:2]), (linear("p", "a"),))
    for among in (set(), {"z"}, {"p", "z"}):
        with pytest.raises(ValueError):
            winners(VotingRule.PLURALITY, prof, among)


# ------------------------------------------------- naive two-stage evaluator

def _top_scorers(scores):
    top = max(scores.values())
    return frozenset(cid for cid, score in scores.items() if score == top)


def naive_winners(rule, profile, among, ballots):
    """Winners among ``among`` of the election the ``ballots`` hold, each
    sub-election built as an explicit restricted profile and decided from
    the rule's definition."""
    sub = restrict_profile(Profile(profile.candidates, tuple(ballots)), among)
    if rule is VotingRule.PLURALITY:
        return _top_scorers(score_plurality(sub))
    if rule is VotingRule.APPROVAL:
        return _top_scorers(score_approval(sub))
    if rule in (VotingRule.CONDORCET, VotingRule.WEAK_CONDORCET):
        return condorcet_winners_from_margins(pairwise_margins(sub), sub.candidate_ids,
                                              weak=rule is VotingRule.WEAK_CONDORCET)
    # System E: its four branches, on the special candidates present.
    specials = {c.special_index: c.id for c in sub.candidates if c.special_index is not None}
    plain = [c.id for c in sub.candidates if c.special_index is None]
    best = _top_scorers(score_approval(restrict_profile(sub, plain))) if plain else frozenset()
    if len(sub.candidates) <= 4:
        return best if set(specials) in ({0, 2}, {1, 3}) else frozenset()
    if set(specials) == {0, 1, 2, 3}:
        return frozenset({specials[len(sub.ballots) % 4]} | (best if len(best) == 1 else set()))
    return frozenset()


def naive_replay(inst, w):
    """(finalists, final winners) of the control action ``w``, or None when
    it breaks a side condition; finalists are None for CCDVG and CCAVG."""
    prob, rule, prof = inst.problem, inst.rule, inst.profile
    everyone = prof.candidate_ids

    def promoted(won):
        return won if inst.tie is TieRule.TP or len(won) == 1 else frozenset()

    if prob in (Problem.CCDVG, Problem.CCAVG):
        chosen = [i for lab, idx in inst.groups if lab in w.labels for i in idx]
        if len(chosen) > inst.limit:
            return None
        if prob is Problem.CCDVG:
            ballots = [b for i, b in enumerate(prof.ballots) if i not in chosen]
        else:
            ballots = list(prof.ballots) + [inst.pool.ballots[i] for i in chosen]
        return None, naive_winners(rule, prof, everyone, ballots)
    finalists = frozenset()
    if prob in (Problem.CCRPC, Problem.CCREPC):
        if prob is Problem.CCREPC and abs(len(w.c1) - len(w.c2)) > 1:
            return None
        for side in (w.c1, w.c2):
            if side:
                finalists |= promoted(naive_winners(rule, prof, side, prof.ballots))
    else:
        if isinstance(w, GroupSelection):
            parts = [[i for lab, idx in inst.groups if (lab in w.labels) == inside for i in idx]
                     for inside in (False, True)]
        else:
            parts = w.parts
            if prob is Problem.CCEPV and abs(len(parts[0]) - len(parts[1])) > 1:
                return None
            if prob is Problem.CCPVG and any(
                    0 < len(set(idx) & set(part)) < len(idx)
                    for _, idx in inst.groups for part in parts):
                return None
        for part in parts:
            finalists |= promoted(naive_winners(rule, prof, everyone,
                                                [prof.ballots[i] for i in part]))
    final = naive_winners(rule, prof, finalists, prof.ballots) if finalists else frozenset()
    return finalists, final


@st.composite
def instances_with_witnesses(draw):
    """A generated instance and a random witness of the right shape, which
    may break the problem's side conditions."""
    inst = draw(generated_instances())
    prob, n = inst.problem, len(inst.profile.ballots)
    labels = [lab for lab, _ in inst.groups or ()]
    if prob in (Problem.CCDVG, Problem.CCAVG) or (
            prob is Problem.CCPVG and draw(st.booleans())):
        return inst, GroupSelection(draw(st.sets(st.sampled_from(labels))) if labels else ())
    if prob in (Problem.CCRPC, Problem.CCREPC):
        ids = inst.profile.candidate_ids
        c1 = draw(st.sets(st.sampled_from(ids)))
        return inst, CandidatePartition(c1, frozenset(ids) - c1)
    size = inst.k if prob is Problem.CCPKV else 2
    if prob is Problem.CCPVG and draw(st.booleans()):  # keep the groups whole
        side = dict(zip(labels, draw(st.lists(st.integers(0, 1), min_size=len(labels),
                                              max_size=len(labels)))))
        where = {i: side[lab] for lab, idx in inst.groups for i in idx}
        owner = [where[i] for i in range(n)]
    else:
        owner = draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))
    return inst, VoterPartition(tuple(tuple(i for i in range(n) if owner[i] == part)
                                      for part in range(size)))


@settings(max_examples=500, deadline=None)
@given(instances_with_witnesses())
def test_replay_equals_naive_two_stage_evaluation(case):
    inst, w = case
    assert replay(inst, w) == naive_replay(inst, w)


@pytest.mark.parametrize("rule", list(VotingRule))
def test_small_voter_parts_elect_on_their_own_ballots(rule):
    # A part of fewer than 1/MASK_SHARE of the ballots compiles to its index
    # tuple, whose ballots ``_elect`` counts one by one; next to a part
    # compiled to its mask and to empty parts, the replay, the public
    # two-stage run and the witness compiled back equal the definition.
    for seed in range(40):
        rng = random.Random(seed)
        k = rng.randint(3, 10)
        inst = random_instance(rng, Problem.CCPKV, rule, rng.choice(list(TieRule)),
                               n_candidates=rng.randint(1, 4),
                               n_voters=rng.randint(2 * MASK_SHARE, 40), k=k,
                               with_specials=rule is VotingRule.SYSTEM_E)
        n = len(inst.profile.ballots)
        owner = [0 if k == 3 or rng.random() < 0.6 else rng.randrange(1, k - 2)
                 for _ in range(n)]
        owner[rng.randrange(n)] = k - 2  # one ballot alone; part k - 1 stays empty
        w = VoterPartition(tuple(tuple(i for i in range(n) if owner[i] == part)
                                 for part in range(k)))
        compiled = _compile(inst, w)
        assert {type(part) for part in compiled if part} == {int, tuple}, (seed, w)
        assert replay(inst, w) == naive_replay(inst, w), (seed, w)
        assert finalists_voter_partition(rule, inst.tie, inst.profile, w.parts) == \
            naive_replay(inst, w)[0]
        assert _public_witness(inst, compiled) == w


# ------------------------------------------- compiled oracle against a reference

def reference_witnesses(inst):
    """The oracle's witnesses in its order, each built as a witness object
    from the enumerators (whose order ``test_oracle`` pins), whose subsets
    are bitmasks."""
    prob, prof = inst.problem, inst.profile
    nv, ids = len(prof.ballots), prof.candidate_ids
    if prob is Problem.CCPV:
        return [VoterPartition(map(members, parts)) for parts in _bipartitions(nv)]
    if prob is Problem.CCEPV:
        return [VoterPartition(parts) for parts in enumerate_equipartitions(nv)]
    if prob is Problem.CCPKV:
        return [VoterPartition(map(members, parts)) for parts in _k_partitions(nv, inst.k)]
    if prob is Problem.CCREPC:
        return [CandidatePartition({ids[i] for i in a}, {ids[i] for i in b})
                for a, b in enumerate_equipartitions(len(ids))]
    if prob is Problem.CCRPC:
        return [CandidatePartition({ids[i] for i in members(a)}, {ids[i] for i in members(b)})
                for a, b in _bipartitions(len(ids))]
    labels = [lab for lab, _ in inst.groups]
    if prob is Problem.CCPVG:  # the first group stays in part one
        return [GroupSelection({labels[1:][i] for i in members(chosen)})
                for chosen, _ in _subsets(len(labels[1:]))]
    sizes = [len(idx) for _, idx in inst.groups]
    return [GroupSelection({labels[i] for i in members(chosen)})
            for chosen, _ in _subsets(len(labels))
            if sum(sizes[i] for i in members(chosen)) <= inst.limit]


def reference_solve(inst, budget):
    """(answer, witness, cases) of the oracle's contract: each witness
    object in order through ``verify_witness``."""
    for cases, w in enumerate(reference_witnesses(inst), 1):
        if cases > budget:
            return "unknown", None, cases - 1
        if verify_witness(inst, w):
            return "yes", w, cases
    return "no", None, len(reference_witnesses(inst))


@settings(max_examples=250, deadline=None)
@given(generated_instances(), st.one_of(st.integers(0, 6), st.just(DEFAULT_BUDGET)))
def test_compiled_oracle_equals_reference_oracle(inst, budget):
    d = oracle_solve(inst, budget)
    assert (d.answer, d.witness, d.stats["cases"]) == reference_solve(inst, budget)
    # Every compiled witness is its witness object, and the core replays it
    # as the public replay and the naive evaluator replay that object.
    prof = inst.profile
    compiled = list(_candidate_witnesses(inst))
    public = reference_witnesses(inst)
    assert len(compiled) == len(public)
    for cw, w in zip(compiled, public):
        assert _public_witness(inst, cw) == w
        finalists, won = _replay(inst, cw)
        core = None if finalists is None else _mask_ids(prof, finalists), _mask_ids(prof, won)
        assert core == replay(inst, w) == naive_replay(inst, w)


@pytest.mark.parametrize("problem", [p for p in Problem
                                     if p not in (Problem.CCRPC, Problem.CCREPC)],
                         ids=lambda p: p.value)
def test_public_witness_inverts_compile_on_the_oracles_witnesses(problem):
    # Each witness the oracle enumerates, read as a witness from outside,
    # compiles to a form that _public_witness turns back into it: voter
    # parts through ballot masks (CCPkV's padded back to k parts), group
    # selections through group index tuples.
    takes = TAKES[problem]
    for seed in range(40):
        rng = random.Random(seed)
        rule = rng.choice(list(VotingRule))
        inst = random_instance(
            rng, problem, rule, rng.choice(list(TieRule)) if "tie" in takes else None,
            n_candidates=rng.randint(1, 3), n_voters=rng.randint(0, 6),
            k=rng.randint(2, 4) if "k" in takes else None,
            limit=rng.randint(0, 4) if "limit" in takes else None,
            pool_size=rng.randint(0, 6) if "pool" in takes else None,
            with_specials=rule is VotingRule.SYSTEM_E)
        for cw in _candidate_witnesses(inst):
            w = _public_witness(inst, cw)
            assert _public_witness(inst, _compile(inst, w)) == w, (seed, w)


def test_final_round_memo_tells_rules_apart():
    # One profile, the same finalists {p, a, b}, two rules: plurality elects
    # p and b (two first places each), Condorcet elects a (3 of 5 against
    # either). The memo is kept per instance, which fixes the rule; one kept
    # on the profile and keyed by the finalists alone would hand the second
    # rule the first rule's winners.
    ballots = (linear("p", "a", "b"), linear("p", "a", "b"), linear("b", "a", "p"),
               linear("b", "a", "p"), linear("a", "p", "b"))
    prof = Profile(tuple(Candidate(c) for c in ("p", "a", "b")), ballots)
    parts = ((0, 1), (2, 3), (4,))
    for rule, final in ((VotingRule.PLURALITY, {"p", "b"}), (VotingRule.CONDORCET, {"a"}),
                        (VotingRule.PLURALITY, {"p", "b"})):
        assert run_two_stage_voter_partition(rule, TieRule.TP, prof, parts) == final
        inst = ControlInstance(problem=Problem.CCPKV, rule=rule, profile=prof, p="p",
                               tie=TieRule.TP, k=3)
        assert replay(inst, VoterPartition(parts)) == naive_replay(inst, VoterPartition(parts))


def test_final_round_memo_stays_bounded():
    # More distinct finalist sets than the memo holds: each is still
    # decided right, and the memo never grows past its size.
    ids = tuple(f"c{i}" for i in range(9))
    rng = random.Random(7)
    prof = Profile(tuple(Candidate(c) for c in ids),
                   tuple(linear(*rng.sample(ids, len(ids))) for _ in range(5)))
    inst = ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY, profile=prof,
                           p="c0", tie=TieRule.TP)
    masks = list(range(1, 200))
    assert len(masks) > FINAL_MEMO_SIZE
    for mask in masks + masks[:10]:
        finalists = frozenset(ids[j] for j in range(9) if mask >> j & 1)
        won = winners(VotingRule.PLURALITY, prof, finalists)
        assert _mask_ids(prof, final_round(inst, mask)) == won
        assert len(inst._finals) <= FINAL_MEMO_SIZE
