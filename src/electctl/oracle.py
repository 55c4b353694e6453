"""Ground-truth exponential-time solver for every control family.

The oracle enumerates candidate witnesses in a fixed deterministic order,
replays each one through the two-stage (or one-stage) election semantics,
and returns the first that makes the distinguished candidate the sole
winner. Bipartitions are enumerated unordered; k-partitions are enumerated
canonically (restricted growth strings) so part relabelings are not
revisited. Exceeding the witness budget yields a distinct "unknown" answer,
never a silent "no".
"""

from __future__ import annotations

from itertools import combinations, repeat
from typing import Iterator

from .elections import _indices
from .two_stage import (
    NO,
    UNKNOWN,
    YES,
    Compiled,
    ControlInstance,
    Decision,
    Problem,
    _public_witness,
    verify_witness,
)

DEFAULT_BUDGET = 10_000_000


def _subsets(
    n: int, pin: bool = False, size: int | None = None
) -> Iterator[tuple[int, int]]:
    """Subsets of range(n) as bitmasks, each with its complement, smallest
    first.

    Subsets of one size come in ``itertools.combinations`` order. With
    ``pin`` (and n > 0) every subset holds element 0, so each unordered
    bipartition appears once. With ``size``, only subsets of that size
    (counting a pinned element) are yielded. This order is what fixes the
    oracle's witnesses and case counts.
    """
    pinned = 1 if pin and n else 0  # element 0's bit, and the count it adds
    free = [1 << i for i in range(pinned, n)]
    everything = (1 << n) - 1
    for r in range(len(free) + 1):
        if size is not None and r + pinned != size:
            continue
        for first in map(sum, combinations(free, r), repeat(pinned)):
            yield first, everything ^ first


def _equipartitions(n: int) -> Iterator[tuple[int, int]]:
    """``enumerate_equipartitions`` as bitmasks."""
    return _subsets(n, pin=n % 2 == 0, size=(n + 1) // 2)


def enumerate_equipartitions(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All unordered bipartitions of range(n) with part sizes within one.

    Yields C(n, n//2) / 2 bipartitions for even n > 0, C(n, (n+1)//2) for
    odd n, and the single empty bipartition for n = 0. Even n pins element
    0 into the first part to kill the part swap; odd n needs no pin, as
    the larger part comes first.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return ((_indices(a), _indices(b)) for a, b in _equipartitions(n))


def _bipartitions(n: int) -> Iterator[tuple[int, int]]:
    """All unordered bipartitions of range(n), empty parts included, as
    bitmasks."""
    return _subsets(n, pin=True)


def _k_partitions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Canonical (part-permutation-free) k-part partitions of range(n), each
    part a bitmask.

    Element i goes to part labels[i]; the labels run through the restricted
    growth strings (each label at most one above every label before it,
    and below k) in lexicographic order.
    """
    labels = [0] * n
    # peak[i]: the largest label among labels[:i] (0 for i = 0).
    peak = [0] * n
    bits = [1 << i for i in range(n)]
    while True:
        parts = [0] * k
        for bit, lab in zip(bits, labels):
            parts[lab] |= bit
        yield tuple(parts)
        i = n - 1
        while i > 0 and (labels[i] == k - 1 or labels[i] > peak[i]):
            i -= 1
        if i <= 0:
            return
        labels[i] += 1
        top = max(peak[i], labels[i])
        for j in range(i + 1, n):
            labels[j] = 0
            peak[j] = top


def _candidate_witnesses(instance: ControlInstance) -> Iterator[Compiled]:
    """The instance's witnesses in the oracle's order, compiled for
    ``two_stage._replay``: candidate sides and voter parts as bitmasks, the
    group problems' witnesses as the tuple of the groups they name (a CCPVG
    split's part 2, the groups a CCDVG deletion deletes or a CCAVG addition
    adds)."""
    prob = instance.problem
    profile = instance.profile
    nv = len(profile.ballots)

    if prob is Problem.CCPV:
        yield from map(Compiled, _bipartitions(nv))
    elif prob is Problem.CCEPV:
        yield from map(Compiled, _equipartitions(nv))
    elif prob is Problem.CCPKV:
        # No label reaches nv, so past nv + 1 parts every extra part is empty
        # and elects what the one empty part kept here elects.
        yield from map(Compiled, _k_partitions(nv, min(instance.k, nv + 1)))
    elif prob is Problem.CCRPC:
        yield from map(Compiled, _bipartitions(len(profile.candidates)))
    elif prob is Problem.CCREPC:
        yield from map(Compiled, _equipartitions(len(profile.candidates)))
    elif prob is Problem.CCPVG:
        # Unordered bipartition of groups: group 0 stays in part 1, and
        # part 2, the side a split names, is each subset of the others.
        others = range(1, len(instance.groups))
        for r in range(len(others) + 1):
            yield from map(Compiled, combinations(others, r))
    else:  # CCDVG or CCAVG
        # Both name the groups they choose: a deletion deletes them, an
        # addition adds them, smallest first. Every group holds a ballot, so
        # no subset of more than ``limit`` groups is within budget.
        sizes = [len(idx) for _, idx in instance.groups]
        for r in range(min(len(sizes), instance.limit) + 1):
            for chosen in combinations(range(len(sizes)), r):
                if sum(map(sizes.__getitem__, chosen)) <= instance.limit:
                    yield Compiled(chosen)


def oracle_solve(instance: ControlInstance, budget: int = DEFAULT_BUDGET) -> Decision:
    """Decide the instance by exhaustive witness enumeration, examining at
    most ``budget`` witnesses (``ValueError`` if negative). Each is enumerated
    compiled and passed once to ``verify_witness``, whose accept test rejects
    it as soon as p cannot reach the final; only the one returned is built."""
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    examined = 0
    for w in _candidate_witnesses(instance):
        examined += 1
        if examined > budget:
            return Decision(UNKNOWN, stats={"cases": examined - 1,
                                            "budget": budget})
        if verify_witness(instance, w):
            return Decision(YES, _public_witness(instance, w), {"cases": examined})
    return Decision(NO, stats={"cases": examined})
