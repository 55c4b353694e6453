"""Replays whose time grows linearly in the ballots.

A set of ballots is a bitmask, and every conversion between index lists
and ballot masks (a voter part, a group union, the per-candidate supporter
table, the voting ballots of an election) must take time linear in the
ballots: shifting one ballot at a time into a growing int, or walking a
mask bit by bit, is quadratic. So must a witness of many small voter
parts, which a mask per part would make parts x ballots.

Each test replays one witness at n and at 16n ballots and bounds the
ratio of the times by 36, 6 for each fourfold growth: linear code reads
about 14 to 19, quadratic code about 256, so neither comes near the bound.
Reading a document and digesting its instance are held to the same bound.
"""

import gc
import json
from itertools import permutations
from time import perf_counter

import pytest

from electctl import (
    Candidate,
    ControlInstance,
    GroupSelection,
    Problem,
    Profile,
    TieRule,
    VoterPartition,
    VotingRule,
    linear,
    replay,
)
from electctl.instance_io import instance_digest, parse_instance

CANDIDATES = tuple(map(Candidate, ("p", "a", "b")))
ORDERS = (linear("p", "a", "b"), linear("a", "b", "p"), linear("b", "p", "a"))


def cycle_profile(n):
    """n ballots cycling through the three orders of a Condorcet cycle."""
    return Profile(CANDIDATES, tuple(ORDERS[i % 3] for i in range(n)))


def equipartition(rule):
    """A CCEPV instance of n ballots and its witness of even and odd ballots."""
    def make(n):
        inst = ControlInstance(problem=Problem.CCEPV, rule=rule, profile=cycle_profile(n),
                               p="p", tie=TieRule.TE)
        return inst, VoterPartition((tuple(range(0, n, 2)), tuple(range(1, n, 2))))
    return make


def singleton_parts(n):
    """A plurality CCPkV instance of n ballots and its witness of n parts of
    one ballot each."""
    inst = ControlInstance(problem=Problem.CCPKV, rule=VotingRule.PLURALITY,
                           profile=cycle_profile(n), p="p", tie=TieRule.TP, k=n)
    return inst, VoterPartition(tuple((i,) for i in range(n)))


def singleton_deletion(n):
    """A Condorcet CCDVG instance of n one-ballot groups and the deletion of
    every third group, which keeps two thirds of the ballots."""
    labels = tuple(f"g{i}" for i in range(n))
    inst = ControlInstance(problem=Problem.CCDVG, rule=VotingRule.CONDORCET,
                           profile=cycle_profile(n), p="p", limit=n, labels=labels)
    inst.groups  # the label table, built once per instance, is not a ballot mask
    return inst, GroupSelection(labels[::3])


def document(ranked, n):
    """A CCEPV document of n ballots, most of them distinct: the first n
    orders of eight candidates, or the approval sets of the first n bit
    patterns of sixteen."""
    ids = [f"c{i}" for i in range(8 if ranked else 16)]
    if ranked:
        entries = [{"order": list(order)} for order, _ in zip(permutations(ids), range(n))]
    else:
        entries = [{"approve": [c for k, c in enumerate(ids) if i >> k & 1]} for i in range(n)]
    return json.dumps({"format": "electctl/1", "problem": "CCEPV",
                       "rule": "plurality" if ranked else "approval", "tie": "TE",
                       "p": "c0", "candidates": [{"id": c} for c in ids], "ballots": entries})


def least_seconds(prepare, inputs):
    """Per input, the least time of three calls: ``prepare(input)`` gives a
    function and its arguments, and only the call is timed. The inputs take
    turns, so that a slow spell of the host slows them alike, and the
    collector is paused while a call runs, so that the time does not depend
    on how many objects the test process holds."""
    times = [[] for _ in inputs]
    for _ in range(3):
        for item, spent in zip(inputs, times):
            run, args = prepare(item)
            was = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                start = perf_counter()
                run(*args)
                spent.append(perf_counter() - start)
            finally:
                if was:
                    gc.enable()
    return [min(spent) for spent in times]


def read_and_digest(text):
    return instance_digest(parse_instance(text))


@pytest.mark.parametrize("ranked", [True, False], ids=["linear", "approval"])
def test_reading_and_digesting_grow_linearly_in_the_ballots(ranked):
    n = 2_000
    texts = [document(ranked, n), document(ranked, 16 * n)]
    small, large = least_seconds(lambda text: (read_and_digest, (text,)), texts)
    assert large <= 36 * small, (small, large)


def replay_seconds(make, sizes):
    """Per size, the least time of three replays, each on a fresh instance
    of that many ballots, so that the profile's tables are built within the
    time."""
    return least_seconds(lambda n: (replay, make(n)), sizes)


@pytest.mark.parametrize("make, n", [
    pytest.param(equipartition(VotingRule.PLURALITY), 12_500, id="ccepv-plurality"),
    pytest.param(equipartition(VotingRule.CONDORCET), 12_500, id="ccepv-condorcet"),
    pytest.param(singleton_parts, 2_500, id="ccpkv-singletons-plurality"),
    pytest.param(singleton_deletion, 6_250, id="ccdvg-condorcet"),
])
def test_replay_time_grows_linearly_in_the_ballots(make, n):
    replay(*make(n))  # the first replay of a process warms what the later ones share
    small, large = replay_seconds(make, (n, 16 * n))
    assert large <= 36 * small, (small, large)
