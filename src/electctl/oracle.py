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

from itertools import combinations
from typing import Iterator

from .two_stage import (
    NO,
    UNKNOWN,
    YES,
    CandidatePartition,
    ControlInstance,
    Decision,
    GroupSelection,
    Problem,
    VoterPartition,
    Witness,
    verify_witness,
)

DEFAULT_BUDGET = 10_000_000


def _subsets(
    n: int, pin: bool = False, size: int | None = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Subsets of range(n), each with its complement, smallest first.

    Subsets of one size come in ``itertools.combinations`` order. With
    ``pin`` (and n > 0) every subset holds element 0, so each unordered
    bipartition appears once. With ``size``, only subsets of that size
    (counting a pinned element) are yielded. This order is what fixes the
    oracle's witnesses and case counts.
    """
    pinned = (0,) if pin and n else ()
    free = range(len(pinned), n)
    for r in range(len(free) + 1):
        if size is not None and r + len(pinned) != size:
            continue
        for rest in combinations(free, r):
            first = pinned + rest
            inside = set(first)
            yield first, tuple(i for i in range(n) if i not in inside)


def enumerate_equipartitions(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All unordered bipartitions of range(n) with part sizes within one.

    Yields C(n, n//2) / 2 bipartitions for even n > 0, C(n, (n+1)//2) for
    odd n, and the single empty bipartition for n = 0. Even n pins element
    0 into the first part to kill the part swap; odd n needs no pin, as
    the larger part comes first.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _subsets(n, pin=n % 2 == 0, size=(n + 1) // 2)


def _bipartitions(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All unordered bipartitions of range(n), empty parts included."""
    return _subsets(n, pin=True)


def _k_partitions(n: int, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Canonical (part-permutation-free) k-part partitions of range(n).

    Element i goes to part labels[i]; the labels run through the restricted
    growth strings (each label at most one above every label before it,
    and below k) in lexicographic order.
    """
    labels = [0] * n
    # peak[i]: the largest label among labels[:i] (0 for i = 0).
    peak = [0] * n
    while True:
        parts: list[list[int]] = [[] for _ in range(k)]
        for idx, lab in enumerate(labels):
            parts[lab].append(idx)
        yield tuple(tuple(part) for part in parts)
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


def _candidate_witnesses(instance: ControlInstance) -> Iterator[Witness]:
    prob = instance.problem
    nv = len(instance.profile.ballots)

    if prob is Problem.CCPV:
        for a, b in _bipartitions(nv):
            yield VoterPartition((a, b))
    elif prob is Problem.CCEPV:
        for a, b in enumerate_equipartitions(nv):
            yield VoterPartition((a, b))
    elif prob is Problem.CCPKV:
        for parts in _k_partitions(nv, instance.k):
            yield VoterPartition(parts)
    elif prob in (Problem.CCRPC, Problem.CCREPC):
        ids = instance.profile.candidate_ids
        nc = len(ids)
        if prob is Problem.CCREPC:
            source = enumerate_equipartitions(nc)
        else:
            source = _bipartitions(nc)
        for a, b in source:
            yield CandidatePartition(
                frozenset(ids[i] for i in a), frozenset(ids[i] for i in b)
            )
    elif prob is Problem.CCPVG:
        # Unordered bipartition of groups: the first group stays in part one.
        rest = [lab for lab, _ in instance.groups][1:]
        for chosen, _ in _subsets(len(rest)):
            yield GroupSelection(frozenset(rest[i] for i in chosen))
    elif prob in (Problem.CCDVG, Problem.CCAVG):
        labels = [lab for lab, _ in instance.groups]
        sizes = [len(idx) for _, idx in instance.groups]
        for chosen, _ in _subsets(len(labels)):
            if sum(sizes[i] for i in chosen) <= instance.limit:
                yield GroupSelection(frozenset(labels[i] for i in chosen))
    else:
        raise ValueError(f"unsupported problem {prob}")


def oracle_solve(instance: ControlInstance, budget: int = DEFAULT_BUDGET) -> Decision:
    """Decide the instance by exhaustive witness enumeration."""
    examined = 0
    for w in _candidate_witnesses(instance):
        examined += 1
        if examined > budget:
            return Decision(UNKNOWN, stats={"cases": examined - 1,
                                            "budget": budget})
        if verify_witness(instance, w):
            return Decision(YES, w, {"cases": examined})
    return Decision(NO, stats={"cases": examined})
