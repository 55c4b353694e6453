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
"""

import gc
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


def replay_seconds(make, sizes):
    """Per size, the least time of three replays, each on a fresh instance
    of that many ballots, so that the profile's tables are built within the
    time. The sizes take turns, so that a slow spell of the host slows them
    alike, and the collector is paused while a replay runs, so that the
    time does not depend on how many objects the test process holds."""
    times = [[] for _ in sizes]
    for _ in range(3):
        for n, spent in zip(sizes, times):
            inst, w = make(n)
            was = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                start = perf_counter()
                replay(inst, w)
                spent.append(perf_counter() - start)
            finally:
                if was:
                    gc.enable()
    return [min(spent) for spent in times]


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
