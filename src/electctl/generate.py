"""Seeded random instance generation for sweeps and property testing."""

from __future__ import annotations

import random
from typing import Sequence

from .elections import LINEAR_RULES, SPECIAL_INDICES, Ballot, Candidate, Profile, VotingRule
from .instance_io import check_sizes
from .two_stage import TAKES, ControlInstance, Problem, TieRule

GROUP_PREFIX = "G"


def default_candidate_ids(n: int) -> tuple[str, ...]:
    return ("p",) + tuple(f"c{i}" for i in range(1, n))


def linear_ballots(rng: random.Random, ids: Sequence[str], n_voters: int) -> tuple[Ballot, ...]:
    return tuple(
        Ballot(order=tuple(rng.sample(list(ids), len(ids)))) for _ in range(n_voters)
    )


def approval_ballots(rng: random.Random, ids: Sequence[str], n_voters: int) -> tuple[Ballot, ...]:
    return tuple(
        Ballot(approvals=frozenset(cid for cid in ids if rng.random() < 0.5))
        for _ in range(n_voters)
    )


def random_instance(
    rng: random.Random,
    problem: Problem,
    rule: VotingRule,
    tie: TieRule | None,
    n_candidates: int,
    n_voters: int,
    k: int | None = None,
    limit: int | None = None,
    n_groups: int | None = None,
    pool_size: int | None = None,
    with_specials: bool = False,
) -> ControlInstance:
    """One random instance; reproducible given the rng state. ``n_groups``
    and ``pool_size`` are refused for a problem that takes no groups or no
    pool. Its sizes pass ``instance_io.check_sizes`` before anything is
    drawn, so every instance it returns can be written and read back."""
    takes = TAKES[problem]
    for what, value, name in (("groups", n_groups, "labels"), ("pool size", pool_size, "pool")):
        if value is not None and name not in takes:
            raise ValueError(f"{problem.value} takes no {what}")
    for what, value, least in (("candidates", n_candidates, 1), ("voters", n_voters, 0),
                               ("pool size", pool_size, 0), ("groups", n_groups, 1)):
        if value is not None and value < least:
            raise ValueError(f"{what} must be at least {least}, got {value}")
    # The ballot count the groups partition: the pool's, if there is one.
    grouped = n_voters if pool_size is None else pool_size
    check_sizes(n_candidates + (len(SPECIAL_INDICES) if with_specials else 0),
                n_voters + (grouped if "pool" in takes else 0), k)

    cands = tuple(map(Candidate, default_candidate_ids(n_candidates)))
    if with_specials:
        cands += tuple(Candidate(f"s{i}", special_index=i) for i in SPECIAL_INDICES)
    ids = tuple(c.id for c in cands)
    draw = linear_ballots if rule in LINEAR_RULES else approval_ballots
    profile = Profile(cands, draw(rng, ids, n_voters))

    pool = None
    if "pool" in takes:  # drawn before the groups, which then partition it
        pool = Profile(cands, draw(rng, ids, grouped))
    labels = None
    if "labels" in takes:  # a label per grouped ballot, from at most n_groups
        n_groups = n_groups or max(1, grouped // 2)
        labels = [f"{GROUP_PREFIX}{rng.randrange(n_groups) + 1}" for _ in range(grouped)]

    return ControlInstance(
        problem=problem,
        rule=rule,
        profile=profile,
        p="p",
        tie=tie,
        k=k,
        limit=limit,
        labels=labels,
        pool=pool,
    )


# Sweepable families with a polynomial solver on one side.
FAMILIES = {
    "ccepv": (Problem.CCEPV, VotingRule.PLURALITY, TieRule.TE),
    "ccpkv": (Problem.CCPKV, VotingRule.PLURALITY, TieRule.TE),
    "wcrpc": (Problem.CCRPC, VotingRule.WEAK_CONDORCET, TieRule.TP),
    "e-ccepv": (Problem.CCEPV, VotingRule.SYSTEM_E, TieRule.TP),
}


def family_instance(
    rng: random.Random,
    family: str,
    n_candidates: int,
    n_voters: int,
    k: int | None = None,
) -> ControlInstance:
    problem, rule, tie = FAMILIES[family]
    return random_instance(
        rng, problem, rule, tie, n_candidates, n_voters,
        k=k if "k" in TAKES[problem] else None,
        with_specials=rule is VotingRule.SYSTEM_E,
    )
