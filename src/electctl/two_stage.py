"""Two-stage partition elections with TE/TP tie handling, plus witness checks.

Stage one runs subelections (per voter part, or per candidate part); the
tie-handling rule decides who survives into the final: TE promotes a
subelection winner only if it is the unique winner there, TP promotes all
winners. The final election is run under the same voting rule over the
surviving candidates with all voters. Acceptance everywhere is the
unique-winner model: the distinguished candidate must be the one and only
final winner. TE/TP is never applied to the final stage itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence, Union

from .elections import Profile, VotingRule, _check_kind, winners


class TieRule(Enum):
    TE = "TE"
    TP = "TP"


class Problem(Enum):
    CCPV = "CCPV"
    CCEPV = "CCEPV"
    CCRPC = "CCRPC"
    CCREPC = "CCREPC"
    CCPKV = "CCPkV"
    CCPVG = "CCPVG"
    CCDVG = "CCDVG"
    CCAVG = "CCAVG"


# The optional ControlInstance fields each problem takes: an instance of the
# problem sets exactly these. Every partition problem takes a tie rule,
# CCPkV its part count, the group problems their groups, and deletion and
# addition a budget (addition also its adder pool).
TAKES: dict[Problem, tuple[str, ...]] = {
    Problem.CCPV: ("tie",),
    Problem.CCEPV: ("tie",),
    Problem.CCRPC: ("tie",),
    Problem.CCREPC: ("tie",),
    Problem.CCPKV: ("tie", "k"),
    Problem.CCPVG: ("tie", "groups"),
    Problem.CCDVG: ("limit", "groups"),
    Problem.CCAVG: ("limit", "groups", "pool"),
}


@dataclass(frozen=True)
class VoterPartition:
    """Witness: ballot-index sets, one per partition part."""

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "parts", tuple(tuple(sorted(p)) for p in self.parts)
        )


@dataclass(frozen=True)
class CandidatePartition:
    """Witness: a bipartition of the candidate ids."""

    c1: frozenset[str]
    c2: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "c1", frozenset(self.c1))
        object.__setattr__(self, "c2", frozenset(self.c2))


@dataclass(frozen=True)
class GroupSelection:
    """Witness: a set of group labels (the selected/second-part groups)."""

    labels: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "labels", frozenset(self.labels))


Witness = Union[VoterPartition, CandidatePartition, GroupSelection]

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass
class Decision:
    """Yes/no/unknown answer, optional witness, and diagnostic counters."""

    answer: str
    witness: Witness | None = None
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ControlInstance:
    """An election plus a control-problem descriptor.

    ``TAKES`` lists the optional fields each problem sets. ``groups`` maps
    a label to ballot indices of ``grouped`` and must partition its vote
    multiset into nonempty groups; they are kept in the order of their
    first ballot, each with its indices ascending, as a document reads them
    back. ``limit`` is the addition/deletion budget; ``k`` is the part
    count. The ballots of the election and of the pool must be of the
    rule's kind.
    """

    problem: Problem
    rule: VotingRule
    profile: Profile
    p: str
    tie: TieRule | None = None
    k: int | None = None
    limit: int | None = None
    groups: tuple[tuple[str, tuple[int, ...]], ...] | None = None
    pool: Profile | None = None

    def __post_init__(self):
        if self.p not in self.profile.candidate_ids:
            raise ValueError(f"distinguished candidate {self.p!r} not in the election")
        _check_kind(self.rule, self.profile)
        if self.groups is not None:
            items = self.groups.items() if isinstance(self.groups, Mapping) else self.groups
            object.__setattr__(self, "groups", tuple((lab, tuple(idx)) for lab, idx in items))

        takes = TAKES[self.problem]
        for name in ("tie", "k", "limit", "groups", "pool"):
            given = getattr(self, name) is not None
            if given != (name in takes):
                raise ValueError(f"{self.problem.value} {'takes no' if given else 'needs'} {name}")

        if self.k is not None and self.k < 2:
            raise ValueError(f"{self.problem.value} needs k >= 2")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"{self.problem.value} needs a nonnegative limit")
        if self.pool is not None:
            if self.pool.candidates != self.profile.candidates:
                raise ValueError("pool must share the election's candidate set")
            _check_kind(self.rule, self.pool)
        if self.groups is not None:
            if not all(idx for _, idx in self.groups):
                raise ValueError("every group needs a ballot")
            seen = sorted(i for _, idx in self.groups for i in idx)
            if seen != list(range(len(self.grouped.ballots))):
                raise ValueError("groups must partition the vote multiset exactly once")
            labels = [lab for lab, _ in self.groups]
            if len(set(labels)) != len(labels):
                raise ValueError("duplicate group labels")
            groups = ((lab, tuple(sorted(idx))) for lab, idx in self.groups)
            object.__setattr__(self, "groups", tuple(sorted(groups, key=lambda g: g[1][0])))

    @property
    def grouped(self) -> Profile:
        """The profile whose ballots the groups partition: the adder pool if
        there is one, otherwise the election."""
        return self.pool if self.pool is not None else self.profile

    @cached_property
    def group_map(self) -> dict[str, tuple[int, ...]]:
        return dict(self.groups or ())

    @cached_property
    def _finals(self) -> dict[frozenset[str], frozenset[str]]:
        """Memo of ``final_round``: finalists -> final winners."""
        return {}

    @cached_property
    def electorate(self) -> Profile:
        """The election's ballots followed by the pool's: every CCAVG
        addition elects from this profile."""
        return Profile(self.profile.candidates, self.profile.ballots + self.pool.ballots)


def _filter_tie(tie: TieRule, subwinners: frozenset[str]) -> frozenset[str]:
    if tie is TieRule.TE and len(subwinners) != 1:
        return frozenset()
    return subwinners


def _check_parts(n: int, parts: Sequence[Iterable[int]]) -> list[tuple[int, ...]]:
    out = [tuple(p) for p in parts]
    flat = sorted(chain.from_iterable(out))
    if flat != list(range(n)):
        if any(i < 0 or i >= n for i in flat):
            raise ValueError("ballot index out of range")
        if len(flat) != len(set(flat)):
            raise ValueError("overlapping partition parts")
        raise ValueError("parts must cover every ballot")
    return out


def finalists_voter_partition(
    rule: VotingRule,
    tie: TieRule,
    profile: Profile,
    parts: Sequence[Iterable[int]],
) -> frozenset[str]:
    """Union over parts of the TE/TP-filtered subelection winner sets."""
    finalists: frozenset[str] = frozenset()
    for part in _check_parts(len(profile.ballots), parts):
        finalists |= _filter_tie(tie, winners(rule, profile, votes=part))
    return finalists


def _candidate_finalists(
    rule: VotingRule, tie: TieRule, profile: Profile, c1: Iterable[str], c2: Iterable[str]
) -> frozenset[str]:
    s1, s2 = frozenset(c1), frozenset(c2)
    if s1 & s2 or (s1 | s2) != profile.candidate_id_set:
        raise ValueError("(C1, C2) must partition the candidate set")
    finalists: frozenset[str] = frozenset()
    for side in (s1, s2):
        if side:
            finalists |= _filter_tie(tie, winners(rule, profile, side))
    return finalists


def _final_round(rule: VotingRule, profile: Profile, finalists: frozenset[str]) -> frozenset[str]:
    return winners(rule, profile, finalists) if finalists else frozenset()


# The most finals one instance remembers; a full memo is emptied. Under TP
# one enumeration can meet tens of thousands of finalist sets (80,555 on
# the weakCondorcet K_{3,3}, k=2 reduction), but it meets them close
# together: on every benchmark workload 64 entries hit within 0.5 points
# as often as an unbounded memo (see README).
FINAL_MEMO_SIZE = 64


def final_round(instance: ControlInstance, finalists: frozenset[str]) -> frozenset[str]:
    """The instance's final round: all of its voters elect among the
    finalists. Remembered on the instance, so an enumeration of witnesses
    does not rerun a final it has already decided."""
    memo = instance._finals
    won = memo.get(finalists)
    if won is None:
        if len(memo) >= FINAL_MEMO_SIZE:
            memo.clear()
        won = memo[finalists] = _final_round(instance.rule, instance.profile, finalists)
    return won


def run_two_stage_voter_partition(
    rule: VotingRule,
    tie: TieRule,
    profile: Profile,
    parts: Sequence[Iterable[int]],
) -> frozenset[str]:
    """Final winner set after partitioning the voters into ``parts``."""
    return _final_round(rule, profile, finalists_voter_partition(rule, tie, profile, parts))


def run_two_stage_candidate_partition(
    rule: VotingRule,
    tie: TieRule,
    profile: Profile,
    c1: Iterable[str],
    c2: Iterable[str],
) -> frozenset[str]:
    """Final winner set after a runoff candidate partition (C1, C2).

    Empty parts are legal and contribute no finalists. Every stage is an
    election over the full profile limited to a candidate subset.
    """
    return _final_round(rule, profile, _candidate_finalists(rule, tie, profile, c1, c2))


def _group_parts(
    instance: ControlInstance, selected: frozenset[str]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    gmap = instance.group_map
    unknown = [lab for lab in selected if lab not in gmap]
    if unknown:
        raise ValueError(f"unknown group labels: {sorted(unknown)}")
    chosen = tuple(chain.from_iterable(map(gmap.__getitem__, selected)))
    rest = tuple(chain.from_iterable(idx for lab, idx in instance.groups if lab not in selected))
    return rest, chosen


def _groups_atomic(instance: ControlInstance, part: frozenset[int]) -> bool:
    return all(set(idx) <= part or not (set(idx) & part)
               for _, idx in instance.groups)


def replay(
    instance: ControlInstance, w: Witness
) -> tuple[frozenset[str] | None, frozenset[str]] | None:
    """Replay the control action described by ``w``.

    Returns (finalists, final winners), with finalists None for the
    one-stage families CCDVG/CCAVG, or None when the witness breaks the
    problem's structural side conditions (equipartition size bound, group
    atomicity, selection budget). A witness whose shape does not fit the
    problem family is an error, not a None.
    """
    prob, rule, tie, profile = instance.problem, instance.rule, instance.tie, instance.profile

    if prob in (Problem.CCPV, Problem.CCEPV, Problem.CCPKV, Problem.CCPVG):
        if prob is Problem.CCPVG and isinstance(w, GroupSelection):
            parts = _group_parts(instance, w.labels)
        else:
            size = instance.k if prob is Problem.CCPKV else 2
            if not isinstance(w, VoterPartition) or len(w.parts) != size:
                raise ValueError(f"{prob.value} needs a {size}-part voter partition witness")
            if prob is Problem.CCEPV and abs(len(w.parts[0]) - len(w.parts[1])) > 1:
                return None
            if prob is Problem.CCPVG and not all(_groups_atomic(instance, frozenset(p))
                                                 for p in w.parts):
                return None
            parts = w.parts
        finalists = finalists_voter_partition(rule, tie, profile, parts)
    elif prob in (Problem.CCRPC, Problem.CCREPC):
        if not isinstance(w, CandidatePartition):
            raise ValueError(f"{prob.value} needs a candidate partition witness")
        if prob is Problem.CCREPC and abs(len(w.c1) - len(w.c2)) > 1:
            return None
        finalists = _candidate_finalists(rule, tie, profile, w.c1, w.c2)
    elif prob in (Problem.CCDVG, Problem.CCAVG):
        if not isinstance(w, GroupSelection):
            raise ValueError(f"{prob.value} needs a group selection witness")
        rest, chosen = _group_parts(instance, w.labels)
        if len(chosen) > instance.limit:
            return None
        if prob is Problem.CCDVG:
            return None, winners(rule, profile, votes=rest)
        n = len(profile.ballots)
        votes = (*range(n), *(n + i for i in chosen))
        return None, winners(rule, instance.electorate, votes=votes)
    else:
        raise ValueError(f"unsupported problem {prob}")
    return finalists, final_round(instance, finalists)


def verify_witness(instance: ControlInstance, w: Witness) -> bool:
    """True iff ``replay`` accepts the witness's side conditions and the
    distinguished candidate is the sole final winner."""
    result = replay(instance, w)
    return result is not None and result[1] == {instance.p}
