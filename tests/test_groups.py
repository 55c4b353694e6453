"""The group problems (CCPVG, CCDVG, CCAVG): group replay against the naive
evaluator, the oracle's answers pinned on the X3C reductions and on random
draws, and the memory of the per-group tables."""

import hashlib
import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from electctl import (
    Candidate,
    ControlInstance,
    GroupSelection,
    Problem,
    Profile,
    TieRule,
    VoterPartition,
    VotingRule,
    approval,
    linear,
    oracle_solve,
    replay,
    verify_witness,
)
from electctl.elections import _mask_ids
from electctl.generate import random_instance
from electctl.instance_io import witness_to_dict
from electctl.oracle import _candidate_witnesses
from electctl.reductions import X3CInstance, solve_x3c_bruteforce, x3c_to_plurality_ccpvg_te
from electctl.two_stage import TAKES, _compile, _public_witness, _replay
from test_properties import naive_replay

GROUP_PROBLEMS = (Problem.CCPVG, Problem.CCDVG, Problem.CCAVG)
TIES = {prob: (TieRule.TE, TieRule.TP) if "tie" in TAKES[prob] else (None,)
        for prob in GROUP_PROBLEMS}
RULES = tuple(VotingRule)


# ---------------------------------------------- group replay against naive

def group_instance(rng, prob, rule, tie, n_voters, n_groups, limit=None, n_pool=0):
    """A random instance of a group problem with ``n_voters`` ballots in the
    election and ``n_pool`` in a CCAVG pool; the grouped ballots fall into
    at most ``n_groups`` groups. System E runs with its four specials."""
    if rule is VotingRule.SYSTEM_E:
        cands = tuple(Candidate(f"s{i}", i) for i in range(4))
        cands += tuple(map(Candidate, ("p", "a", "b")[:rng.randint(1, 3)]))
    else:
        cands = tuple(map(Candidate, ("p", "a", "b", "c", "d")[:rng.randint(1, 5)]))
    ids = [c.id for c in cands]

    def ballots(n):
        if rule in (VotingRule.APPROVAL, VotingRule.SYSTEM_E):
            return tuple(approval(c for c in ids if rng.random() < 0.5) for _ in range(n))
        return tuple(linear(*rng.sample(ids, len(ids))) for _ in range(n))

    profile = Profile(cands, ballots(n_voters))
    pool = Profile(cands, ballots(n_pool)) if prob is Problem.CCAVG else None
    grouped = len((pool or profile).ballots)
    labels = [f"g{rng.randrange(n_groups)}" for _ in range(grouped)]
    return ControlInstance(problem=prob, rule=rule, profile=profile, p="p", tie=tie,
                           limit=limit, labels=labels, pool=pool)


def check_selections(inst, selections):
    for labels in selections:
        w = GroupSelection(labels)
        assert replay(inst, w) == naive_replay(inst, w), sorted(labels)


def check_oracle_forms(inst):
    """Every witness the oracle enumerates replays, compiled, as its witness
    object does in ``replay`` and in the naive evaluator."""
    prof = inst.profile
    for cw in _candidate_witnesses(inst):
        w = _public_witness(inst, cw)
        finalists, won = _replay(inst, cw)
        core = None if finalists is None else _mask_ids(prof, finalists), _mask_ids(prof, won)
        assert core == replay(inst, w) == naive_replay(inst, w), w


def draw_instance(rng, prob, rule, tie):
    """20-40 grouped ballots in 3-7 groups (at most)."""
    grouped = rng.randint(20, 40)
    if prob is Problem.CCAVG:
        return group_instance(rng, prob, rule, tie, rng.randint(0, 12), rng.randint(3, 7),
                              limit=rng.randint(0, grouped), n_pool=grouped)
    limit = rng.randint(0, grouped) if prob is Problem.CCDVG else None
    return group_instance(rng, prob, rule, tie, grouped, rng.randint(3, 7), limit=limit)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
@pytest.mark.parametrize("prob", GROUP_PROBLEMS, ids=lambda p: p.value)
def test_group_replay_equals_naive_replay(prob, rule):
    rng = random.Random(f"group replay {prob.value} {rule.value}")
    for tie in TIES[prob]:
        for trial in range(8):
            inst = draw_instance(rng, prob, rule, tie)
            labels = [lab for lab, _ in inst.groups]
            check_selections(inst, [{lab for lab in labels if rng.random() < 0.5}
                                    for _ in range(6)])
            if prob is Problem.CCPVG:
                # A voter partition along the groups compiles to them; ballot
                # 0 alone splits its group unless that group is a singleton.
                n = len(inst.profile.ballots)
                side = {lab: rng.randrange(2) for lab in labels}
                where = {i: side[lab] for lab, idx in inst.groups for i in idx}
                atomic = VoterPartition(tuple(tuple(i for i in range(n) if where[i] == s)
                                              for s in (0, 1)))
                split = VoterPartition(((0,), tuple(range(1, n))))
                for w in (atomic, split):
                    assert replay(inst, w) == naive_replay(inst, w)
            if trial < 2:
                check_oracle_forms(inst)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
def test_group_replay_edge_cases(rule):
    rng = random.Random(f"group edges {rule.value}")
    for tie in (TieRule.TE, TieRule.TP):
        # Zero groups: two empty parts.
        inst = group_instance(rng, Problem.CCPVG, rule, tie, 0, 3)
        assert inst.groups == ()
        check_selections(inst, [set()])
        check_oracle_forms(inst)
        assert [_public_witness(inst, w) for w in _candidate_witnesses(inst)] == [
            GroupSelection(())]
        w = VoterPartition(((), ()))
        assert replay(inst, w) == naive_replay(inst, w)
        # Every group selected: part one is empty.
        inst = group_instance(rng, Problem.CCPVG, rule, tie, 30, 5)
        check_selections(inst, [{lab for lab, _ in inst.groups}, set()])
    # Zero groups: nothing to delete or add.
    check_oracle_forms(group_instance(rng, Problem.CCDVG, rule, None, 0, 3, limit=2))
    check_oracle_forms(group_instance(rng, Problem.CCAVG, rule, None, 9, 3, limit=2))
    # Every group deleted: an empty electorate.
    inst = group_instance(rng, Problem.CCDVG, rule, None, 30, 6, limit=30)
    everything = {lab for lab, _ in inst.groups}
    check_selections(inst, [everything, set()])
    # An addition to an empty election.
    inst = group_instance(rng, Problem.CCAVG, rule, None, 0, 6, limit=40, n_pool=30)
    check_selections(inst, [{lab for lab, _ in inst.groups}, set(), {inst.groups[0][0]}])
    check_oracle_forms(inst)
    # Limit 0: only the empty selection is within the budget.
    for prob in (Problem.CCDVG, Problem.CCAVG):
        inst = group_instance(rng, prob, rule, None, 25, 4, limit=0, n_pool=25)
        check_selections(inst, [set(), {inst.groups[0][0]}])
        assert replay(inst, GroupSelection({inst.groups[0][0]})) is None
        assert [_public_witness(inst, w) for w in _candidate_witnesses(inst)] == [
            GroupSelection(())]
        check_oracle_forms(inst)


def test_plurality_group_elections_by_hand():
    # Part one {g1: p, p; g3: a} elects p; part two {g2: a, b} ties a and b.
    cands = tuple(map(Candidate, ("p", "a", "b")))
    prof = Profile(cands, (linear("p", "a", "b"), linear("p", "b", "a"),
                           linear("a", "p", "b"), linear("b", "a", "p"),
                           linear("a", "b", "p")))
    labels = ("g1", "g1", "g2", "g2", "g3")
    te = ControlInstance(problem=Problem.CCPVG, rule=VotingRule.PLURALITY, profile=prof,
                         p="p", tie=TieRule.TE, labels=labels)
    assert replay(te, GroupSelection({"g2"})) == ({"p"}, {"p"})
    tp = ControlInstance(problem=Problem.CCPVG, rule=VotingRule.PLURALITY, profile=prof,
                         p="p", tie=TieRule.TP, labels=labels)
    assert replay(tp, GroupSelection({"g2"})) == ({"p", "a", "b"}, {"p", "a"})
    # The empty part of a selection of every group elects everyone.
    assert replay(tp, GroupSelection({"g1", "g2", "g3"})) == ({"p", "a", "b"}, {"p", "a"})
    # Deleting g1 leaves a ahead (2 to b's 1); deleting everything elects everyone.
    dv = ControlInstance(problem=Problem.CCDVG, rule=VotingRule.PLURALITY, profile=prof,
                         p="p", limit=5, labels=labels)
    assert replay(dv, GroupSelection({"g1"})) == (None, {"a"})
    assert replay(dv, GroupSelection({"g1", "g2", "g3"})) == (None, {"p", "a", "b"})
    # Adding g1 to the election (p 2, a 2, b 1) puts p ahead with 4.
    av = ControlInstance(problem=Problem.CCAVG, rule=VotingRule.PLURALITY, profile=prof,
                         p="p", limit=2, labels=labels, pool=prof)
    assert replay(av, GroupSelection({"g1"})) == (None, {"p"})
    assert replay(av, GroupSelection({"g2"})) == (None, {"a"})


def edge_instance(prob, rule, tie, ids, orders, labels, limit=None):
    """An instance of a group problem on the candidates ``ids`` (system E
    adds its four specials) whose ballots are ``orders``: a linear ballot
    ranks its order, an approval ballot approves the first of it."""
    cands = tuple(map(Candidate, ids))
    if rule is VotingRule.SYSTEM_E:
        cands += tuple(Candidate(f"s{i}", i) for i in range(4))
    if rule in (VotingRule.APPROVAL, VotingRule.SYSTEM_E):
        ballots = tuple(approval(order[:1]) for order in orders)
    else:
        ballots = tuple(linear(*order, *(c.id for c in cands if c.id not in order))
                        for order in orders)
    return ControlInstance(problem=prob, rule=rule, profile=Profile(cands, ballots), p="p",
                           tie=tie, limit=limit, labels=labels)


def group_edge_cases():
    """(instance, selection) pairs at the edges of the group problems, for
    every rule and, for CCPVG, both tie rules."""
    # In g1, a and b tie for the top; in g2, p leads alone. Under TE the
    # tied part promotes nobody, so p alone reaches the final.
    tied = (("a", "b", "p"), ("b", "a", "p"), ("p", "a", "b"), ("p", "b", "a"),
            ("a", "p", "b"))
    tied_labels = ("g1", "g1", "g2", "g2", "g2")
    cases = []
    for rule in RULES:
        for tie in (TieRule.TE, TieRule.TP):
            def ccpvg(ids, orders, labels, *selections):
                inst = edge_instance(Problem.CCPVG, rule, tie, ids, orders, labels)
                cases.extend((inst, GroupSelection(sel)) for sel in selections)
            # One candidate: an empty part elects it, so TE promotes it.
            ccpvg(("p",), [("p",)] * 3, ("g1", "g1", "g2"), (), ("g1",), ("g1", "g2"))
            # Zero groups: both parts are empty.
            ccpvg(("p", "a"), (), (), ())
            # Every group on one side.
            ccpvg(("p", "a", "b"), tied, tied_labels, ("g1", "g2"), ())
            # A tie for the top inside the named part, then inside the other.
            ccpvg(("p", "a", "b"), tied, tied_labels, ("g1",), ("g2",))
        for limit, selections in ((0, ((), ("g1",))), (5, (("g1", "g2"),))):
            # Limit 0 admits only the empty deletion; limit 5 deletes every group.
            inst = edge_instance(Problem.CCDVG, rule, None, ("p", "a", "b"), tied, tied_labels,
                                 limit=limit)
            cases.extend((inst, GroupSelection(sel)) for sel in selections)
    return cases


GROUP_EDGE_CASES = group_edge_cases()


def with_examples(cases):
    """A decorator that adds each of ``cases`` to a test as an explicit example."""
    def add(test):
        for case in cases:
            test = example(case)(test)
        return test
    return add


def as_partition(inst, selection):
    """The two-part voter partition of ``selection``: the ballots of the
    unselected groups, then those of the selected ones."""
    return VoterPartition(tuple(tuple(i for lab, idx in inst.groups
                                      if (lab in selection.labels) == inside for i in idx)
                                for inside in (False, True)))


@st.composite
def group_selections(draw):
    """A random instance of a group problem, zero groups included, and a
    selection of its group labels (which may exceed the budget)."""
    prob = draw(st.sampled_from(GROUP_PROBLEMS))
    rule = draw(st.sampled_from(RULES))
    takes = TAKES[prob]
    inst = random_instance(
        random.Random(draw(st.integers(0, 2**32))), prob, rule,
        draw(st.sampled_from(TIES[prob])), n_candidates=draw(st.integers(1, 4)),
        n_voters=draw(st.integers(0, 8)), n_groups=draw(st.integers(1, 4)),
        limit=draw(st.integers(0, 8)) if "limit" in takes else None,
        pool_size=draw(st.integers(0, 8)) if "pool" in takes else None,
        with_specials=rule is VotingRule.SYSTEM_E)
    labels = sorted(lab for lab, _ in inst.groups)
    return inst, GroupSelection(draw(st.sets(st.sampled_from(labels))) if labels else ())


@settings(max_examples=300, deadline=None)
@given(group_selections())
@with_examples(GROUP_EDGE_CASES)
def test_group_selections_replay_as_the_naive_evaluator(case):
    # The selection compiles to the groups it names, and back; its replay,
    # which counts the other side as the totals minus the named one, and its
    # accept test agree with the naive evaluator.
    inst, w = case
    want = naive_replay(inst, w)
    assert replay(inst, w) == want
    assert verify_witness(inst, w) == (want is not None and want[1] == {inst.p})
    compiled = _compile(inst, w)
    if compiled is not None:
        assert compiled == tuple(g for g, (lab, _) in enumerate(inst.groups) if lab in w.labels)
        assert _public_witness(inst, compiled) == w


def test_a_ccdvg_deletion_compiles_to_the_groups_it_deletes():
    prof = Profile(tuple(map(Candidate, ("p", "a"))),
                   (linear("p", "a"), linear("a", "p"), linear("a", "p")))
    dv = ControlInstance(problem=Problem.CCDVG, rule=VotingRule.PLURALITY, profile=prof,
                         p="p", limit=2, labels=("g1", "g2", "g3"))
    assert _compile(dv, GroupSelection({"g3", "g2"})) == (1, 2)
    assert _compile(dv, GroupSelection(())) == ()
    assert _compile(dv, GroupSelection({"g1", "g2", "g3"})) is None  # over the budget
    assert replay(dv, GroupSelection({"g3", "g2"})) == (None, {"p"})


@st.composite
def ccpvg_partitions(draw):
    """A random CCPVG instance, zero groups included, and a two-part voter
    partition, half the time one that keeps every group whole."""
    rule = draw(st.sampled_from(RULES))
    inst = random_instance(
        random.Random(draw(st.integers(0, 2**32))), Problem.CCPVG, rule,
        draw(st.sampled_from(TIES[Problem.CCPVG])), n_candidates=draw(st.integers(1, 4)),
        n_voters=draw(st.integers(0, 8)), n_groups=draw(st.integers(1, 4)),
        with_specials=rule is VotingRule.SYSTEM_E)
    n = len(inst.labels)
    if draw(st.booleans()):
        side = {lab: draw(st.integers(0, 1)) for lab in sorted(set(inst.labels))}
        owner = [side[lab] for lab in inst.labels]
    else:
        owner = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return inst, VoterPartition(tuple(tuple(i for i in range(n) if owner[i] == s)
                                      for s in (0, 1)))


@settings(max_examples=300, deadline=None)
@given(ccpvg_partitions())
@example((ControlInstance(problem=Problem.CCPVG, rule=VotingRule.PLURALITY,
                          profile=Profile((Candidate("p"),), ()), p="p", tie=TieRule.TE,
                          labels=()),
          VoterPartition(((), ()))))
@with_examples([(inst, as_partition(inst, w)) for inst, w in GROUP_EDGE_CASES
                if inst.problem is Problem.CCPVG])
def test_ccpvg_voter_partition_replays_as_the_selection_of_its_second_part(case):
    # A partition that splits a group breaks atomicity. Any other selects
    # the groups of its second part, and compiles, as that selection does,
    # to the indices of part 2's groups in group order.
    inst, w = case
    first, second = ({inst.labels[i] for i in part} for part in w.parts)
    if first & second:
        assert replay(inst, w) is None
        return
    selection = GroupSelection(second)
    assert replay(inst, w) == replay(inst, selection) == naive_replay(inst, selection)
    want = tuple(g for g, (lab, _) in enumerate(inst.groups) if lab in second)
    assert _compile(inst, w) == _compile(inst, selection) == want


# ----------------------------------------------------- the oracle's goldens

X3C_BASE = tuple(f"b{i}" for i in range(1, 7))


def hardness_x3c(seed):
    """The X3C reductions that the benchmark's ``hardness`` workload builds
    at ``seed``, in its draw order: its rng first relabels K4 and the prism
    (three shuffles each, of 4, 4, 6 and 6, 6, 9 items); then come 8 "yes"
    and 30 "no" sources of 4 triples, 13 "no" of 5, and 15 of 4 triples
    that all hold b1."""
    rng = random.Random(f"hardness:{seed}")
    for size in (4, 4, 6, 6, 6, 9):
        rng.shuffle([None] * size)
    sources = []
    for n, quota in ((4, {True: 8, False: 30}), (5, {True: 0, False: 13})):
        while any(quota.values()):
            seen = set()
            while len(seen) < n:
                seen.add(tuple(sorted(rng.sample(X3C_BASE, 3))))
            x = X3CInstance(X3C_BASE, tuple(map(frozenset, sorted(seen))))
            found = solve_x3c_bruteforce(x)
            if quota[found]:
                quota[found] -= 1
                sources.append(x)
    pairs = [(a, b) for i, a in enumerate(X3C_BASE[1:]) for b in X3C_BASE[2 + i:]]
    for _ in range(15):
        triples = sorted((X3C_BASE[0],) + pr for pr in rng.sample(pairs, 4))
        sources.append(X3CInstance(X3C_BASE, tuple(map(frozenset, triples))))
    return [x3c_to_plurality_ccpvg_te(x) for x in sources]


def group_draws():
    """600 ``random_instance`` draws: 30 of each group problem, rule and tie
    rule, in turn."""
    rng = random.Random("group goldens")
    kinds = [(prob, rule, tie) for prob in GROUP_PROBLEMS for rule in RULES
             for tie in TIES[prob]]
    draws = []
    for i in range(600):
        prob, rule, tie = kinds[i % len(kinds)]
        draws.append(random_instance(
            rng, prob, rule, tie, rng.randint(1, 4), rng.randint(0, 9),
            limit=rng.randint(0, 5) if "limit" in TAKES[prob] else None,
            n_groups=rng.randint(1, 6),
            pool_size=rng.randint(0, 8) if prob is Problem.CCAVG else None,
            with_specials=rule is VotingRule.SYSTEM_E))
    return draws


def oracle_rows(instances):
    """Per instance, the oracle's (answer, witness, cases) as a JSON line."""
    rows = []
    for inst in instances:
        d = oracle_solve(inst)
        w = None if d.witness is None else witness_to_dict(d.witness)["witness"]
        rows.append(json.dumps([d.answer, w, d.stats["cases"]], sort_keys=True))
    return rows


def digest(rows):
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# Computed before groups became the unit of the compiled witness, when
# each group split was replayed ballot by ballot.
X3C_ROWS = {
    0: '0 ["no", null, 64]',
    3: '0 ["yes", {"groups": ["G2", "G4", "Gc", "Gd"], "type": "group_selection"}, 51]',
    4: '0 ["yes", {"groups": ["G2", "G3", "GB"], "type": "group_selection"}, 24]',
    131: '1 ["no", null, 64]',
    329: '4 ["no", null, 64]',
}
X3C_DIGEST = "4bec9acbbe33df72df8a468909717f75e1771cea2af599d13754726135fa9bdc"
DRAW_ROWS = {
    0: '["no", null, 1]',
    1: '["yes", {"groups": [], "type": "group_selection"}, 1]',
    6: '["yes", {"groups": ["G4"], "type": "group_selection"}, 3]',
    30: '["yes", {"groups": ["G1", "G4"], "type": "group_selection"}, 5]',
    78: '["yes", {"groups": ["G5"], "type": "group_selection"}, 5]',
    281: '["yes", {"groups": ["G2", "G4"], "type": "group_selection"}, 4]',
    439: '["no", null, 21]',
    493: '["yes", {"groups": ["G2", "G4", "G5"], "type": "group_selection"}, 14]',
}
DRAW_DIGEST = "4a3e8058d533f1601773b2975edbddfc6e6fd2798f15730ea70561ddd4d7028f"


def test_oracle_goldens_on_the_hardness_x3c_reductions():
    rows = [f"{seed} {row}" for seed in range(5) for row in oracle_rows(hardness_x3c(seed))]
    assert len(rows) == 5 * 66
    for i, row in X3C_ROWS.items():
        assert rows[i] == row
    assert digest(rows) == X3C_DIGEST


def test_oracle_goldens_on_random_group_draws():
    rows = oracle_rows(group_draws())
    for i, row in DRAW_ROWS.items():
        assert rows[i] == row
    assert digest(rows) == DRAW_DIGEST


# ------------------------------------------------------------------ memory

def test_group_tables_grow_with_the_ballots():
    # 1,000 candidates and 20,000 singleton groups. Candidate i tops the
    # 1,000 distinct ballots' i-th rotation, which appears 20 times, 10 in
    # each part: both parts tie among everyone, TP keeps them all, and the
    # final among all candidates ties too. A dense groups x candidates
    # table would hold 2*10^7 counts, about 160 MB.
    ids = ["p"] + [f"c{i}" for i in range(1, 1000)]
    rotations = [linear(*ids[i:], *ids[:i]) for i in range(1000)]
    prof = Profile(tuple(map(Candidate, ids)),
                   tuple(rotations[j % 1000] for j in range(20_000)))
    inst = ControlInstance(problem=Problem.CCPVG, rule=VotingRule.PLURALITY, profile=prof,
                           p="p", tie=TieRule.TP,
                           labels=[f"g{j}" for j in range(20_000)])
    selection = GroupSelection(f"g{j}" for j in range(10_000))
    tracemalloc.start()
    try:
        result = replay(inst, selection)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (frozenset(ids), frozenset(ids))
    assert peak < 20 * 2**20, peak
