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
from operator import sub
from typing import Callable, Iterable, Sequence, Union

from .elections import (
    Profile,
    VotingRule,
    _ballot_mask,
    _check_kind,
    _elect,
    _id_mask,
    _indices,
    _mask_ids,
    _plurality,
    winners,
)


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
# CCPkV its part count, the group problems their group labels, and deletion
# and addition a budget (addition also its adder pool).
TAKES: dict[Problem, tuple[str, ...]] = {
    Problem.CCPV: ("tie",),
    Problem.CCEPV: ("tie",),
    Problem.CCRPC: ("tie",),
    Problem.CCREPC: ("tie",),
    Problem.CCPKV: ("tie", "k"),
    Problem.CCPVG: ("tie", "labels"),
    Problem.CCDVG: ("limit", "labels"),
    Problem.CCAVG: ("limit", "labels", "pool"),
}


@dataclass(frozen=True)
class VoterPartition:
    """Witness: ballot-index sets, one per partition part."""

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # Empty parts skip the sort: a CCPkV witness may have up to k = 10^6.
        object.__setattr__(
            self, "parts", tuple(tuple(sorted(p)) if p else () for p in self.parts)
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

    ``TAKES`` lists the optional fields each problem sets. ``labels`` gives
    each ballot of ``grouped`` its group label, a string, as a document
    does; the ballots with one label form one group. ``limit`` is the
    addition/deletion budget; ``k`` is the part count. The ballots of the
    election and of the pool must be of the rule's kind.
    """

    problem: Problem
    rule: VotingRule
    profile: Profile
    p: str
    tie: TieRule | None = None
    k: int | None = None
    limit: int | None = None
    labels: tuple[str, ...] | None = None
    pool: Profile | None = None

    def __post_init__(self):
        if self.p not in self.profile.candidate_ids:
            raise ValueError(f"distinguished candidate {self.p!r} not in the election")
        _check_kind(self.rule, self.profile)
        takes = TAKES[self.problem]
        for name in ("tie", "k", "limit", "labels", "pool"):
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
        if self.labels is not None:
            if isinstance(self.labels, str):  # not one label per character
                raise ValueError("labels must be a sequence of group labels, not a string")
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != len(self.grouped.ballots):
                raise ValueError("every grouped ballot needs one group label")
            if not all(isinstance(lab, str) for lab in self.labels):
                raise ValueError("a group label must be a string")

    @property
    def grouped(self) -> Profile:
        """The profile whose ballots the groups partition: the adder pool if
        there is one, otherwise the election."""
        return self.pool if self.pool is not None else self.profile

    @cached_property
    def groups(self) -> tuple[tuple[str, tuple[int, ...]], ...] | None:
        """Each group's label and ballot indices into ``grouped``, listed in
        the order of their first ballot; None for a problem without groups."""
        if self.labels is None:
            return None
        groups: dict[str, list[int]] = {}
        for i, lab in enumerate(self.labels):
            groups.setdefault(lab, []).append(i)
        return tuple((lab, tuple(idx)) for lab, idx in groups.items())

    @cached_property
    def _group_tops(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per group, the first places of its ballots (plurality only) as
        (position, count) pairs, one per position that tops one of them: a
        table that grows with the ballots, not with groups times candidates."""
        tops, table = self.grouped.tops, []
        for _, idx in self.groups:
            counts: dict[int, int] = {}
            for i in idx:
                counts[tops[i]] = counts.get(tops[i], 0) + 1
            table.append(tuple(counts.items()))
        return tuple(table)

    @cached_property
    def _group_total(self) -> tuple[int, ...]:
        """Per candidate position, how many grouped ballots rank it first
        (plurality only): one side's counts are these minus the other's."""
        return tuple(_group_counts(self, range(len(self.groups))))

    @cached_property
    def _finals(self) -> dict[int, int]:
        """Memo of the final round: finalist mask -> final winners' mask."""
        return {}

    @cached_property
    def _accept(self) -> Callable[[ControlInstance, tuple], bool]:
        """The accept test: ``verify_witness`` on (instance, compiled witness),
        dispatched once. It holds no instance, lest a cycle keep the profile."""
        target = 1 << self.profile.index[self.p]
        stage = _stage_one(self)
        if stage is None:
            return lambda inst, w: _replay(inst, w)[1] == target
        def accept(inst: ControlInstance, w: tuple) -> bool:
            finalists = stage(inst, w, target)
            return finalists & target != 0 and final_round(inst, finalists) == target
        return accept

    @cached_property
    def electorate(self) -> Profile:
        """The election's ballots followed by the pool's: every CCAVG
        addition elects from this profile."""
        return Profile(self.profile.candidates, self.profile.ballots + self.pool.ballots)


def _check_parts(n: int, parts: Sequence[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    out = tuple(map(tuple, parts))
    flat = sorted(chain.from_iterable(out))
    if flat != list(range(n)):
        if any(i < 0 or i >= n for i in flat):
            raise ValueError("ballot index out of range")
        if len(flat) != len(set(flat)):
            raise ValueError("overlapping partition parts")
        raise ValueError("parts must cover every ballot")
    return out


# A voter part of at least 1/MASK_SHARE of the n ballots compiles to its
# ballot mask, of n digits for at least n/MASK_SHARE ballots; a smaller
# part stays its index tuple, whose ballots ``_elect`` counts one by one.
# So a witness of many small parts (a CCPkV witness may have 10^6)
# compiles and replays in time linear in the ballots, where a mask per part
# would take parts x ballots.
MASK_SHARE = 8


def _voter_parts(n: int, parts: Sequence[Sequence[int]]) -> tuple[int | tuple[int, ...], ...]:
    """The compiled form of checked voter parts (see ``_check_parts``), as
    ``_elect`` takes them: an empty part 0, a small part itself, a large
    part its ballot mask."""
    return tuple(0 if not part else part if MASK_SHARE * len(part) < n
                 else _ballot_mask(part, n) for part in parts)


def _candidate_sides(profile: Profile, c1: Iterable[str], c2: Iterable[str]) -> tuple[int, int]:
    """The bitmasks of (C1, C2), which must partition the candidate set."""
    s1, s2 = frozenset(c1), frozenset(c2)
    if s1 & s2 or (s1 | s2) != profile.index.keys():
        raise ValueError("(C1, C2) must partition the candidate set")
    return _id_mask(profile, s1), _id_mask(profile, s2)


# The compiled core. Candidates are position bitmasks, voters ballot
# bitmasks (a small voter part its index tuple, see ``_voter_parts``) and
# groups their indices in ``groups``, checked before they get here: stage
# one elects per voter part or side of a group split (all candidates
# running) or per nonempty candidate side (all voters voting); TE keeps a
# subelection's winners only when there is one. Each kind of part has its
# own loop: a shared one over a generator of winners cost the oracle about
# 10% on small voter and candidate partitions.

def _voter_finalists(rule: VotingRule, te: bool, profile: Profile,
                     parts: Iterable[int | tuple[int, ...]]) -> int:
    everyone = profile.everyone
    finalists = 0
    for part in parts:
        won = _elect(rule, profile, everyone, part)
        if not (te and won & (won - 1)):
            finalists |= won
    return finalists


def _candidate_finalists(rule: VotingRule, te: bool, profile: Profile,
                         sides: Sequence[int], need: int = 0) -> int:
    # With ``need``, a candidate's bit, its side goes first and must promote it.
    if sides[1] & need:
        sides = sides[::-1]
    finalists = 0
    for side in sides:
        if side:
            won = _elect(rule, profile, side, None)
            if side & need:  # the needed candidate's side
                if (won != need if te else not won & need):
                    return 0
            elif te and won & (won - 1):
                continue
            finalists |= won
    return finalists


def _sole_top(counts: Sequence[int]) -> int:
    """The bit of the one position with the most of ``counts``, or 0 on a tie."""
    top = max(counts)
    return 1 << counts.index(top) if counts.count(top) == 1 else 0


def _group_counts(instance: ControlInstance, groups: Iterable[int]) -> list[int]:
    """Per candidate position, how many ballots of ``groups`` rank it first."""
    counts = [0] * len(instance.profile.candidates)
    tops = instance._group_tops
    for g in groups:
        for a, n in tops[g]:
            counts[a] += n
    return counts


def _group_votes(instance: ControlInstance, groups: Iterable[int]) -> int:
    """The ballot mask, over ``grouped``, of the ballots of ``groups``."""
    return _ballot_mask(chain.from_iterable(instance.groups[g][1] for g in groups),
                        len(instance.grouped.ballots))


# The most finals one instance remembers; a full memo is emptied. A final
# is asked only when p is a finalist: one round (seed 1) asks 492 on
# ``hardness`` (68% remembered) and 4,190 on ``sweep`` (95%); on every
# workload 64 entries hit as often as an unbounded memo (see README).
FINAL_MEMO_SIZE = 64


def final_round(instance: ControlInstance, finalists: int) -> int:
    """The instance's final round, finalists and winners as bitmasks: all
    of its voters elect among the finalists. Remembered on the instance,
    keyed by the finalist mask, so an enumeration of witnesses does not
    rerun a final it has already decided."""
    if not finalists:
        return 0
    memo = instance._finals
    won = memo.get(finalists)
    if won is None:
        if len(memo) >= FINAL_MEMO_SIZE:
            memo.clear()
        won = memo[finalists] = _elect(instance.rule, instance.profile, finalists, None)
    return won


_CANDIDATE_PROBLEMS = (Problem.CCRPC, Problem.CCREPC)


def _stage_one(instance: ControlInstance) -> Callable[[ControlInstance, tuple, int], int] | None:
    """The instance's stage one (None for CCDVG, CCAVG), holding no instance: the
    finalists of (instance, compiled witness, ``need``), or 0 once bit ``need`` cannot be one."""
    prob = instance.problem
    if prob in (Problem.CCDVG, Problem.CCAVG):
        return None
    rule, profile, te = instance.rule, instance.profile, instance.tie is TieRule.TE
    if prob in _CANDIDATE_PROBLEMS:
        return lambda _, w, need: _candidate_finalists(rule, te, profile, w, need)
    if prob is not Problem.CCPVG:
        return lambda _, w, __: _voter_finalists(rule, te, profile, w)
    # A CCPVG split's two sides: the groups it names, and the totals minus them.
    if rule is VotingRule.PLURALITY:  # under TE a side's sole winner, with no tie mask
        total, top = instance._group_total, _sole_top if te else _plurality
        def plurality_sides(inst: ControlInstance, w: tuple, _: int) -> int:
            named = _group_counts(inst, w)
            return top(named) | top(list(map(sub, total, named)))
        return plurality_sides
    all_ballots = (1 << len(profile.ballots)) - 1  # other rules elect them as voter parts
    def sides(inst: ControlInstance, w: tuple, _: int) -> int:
        named = _group_votes(inst, w)
        return _voter_finalists(rule, te, profile, (named, all_ballots ^ named))
    return sides


def _replay(instance: ControlInstance, w: tuple) -> tuple[int | None, int]:
    """(finalists, final winners) as bitmasks, finalists None for CCDVG and
    CCAVG, of the compiled witness ``w``: for a candidate partition its two
    side masks; for a voter partition its parts, each a ballot mask or
    (see ``_voter_parts``) an index tuple; for the group problems the tuple
    of the group indices it names: a CCPVG split's part 2, the groups a
    CCDVG deletion deletes, the pool groups a CCAVG addition adds. The side
    it does not name is counted as the totals minus the named side. It runs
    every stage; ``ControlInstance._accept`` need not."""
    stage = _stage_one(instance)
    if stage is not None:
        finalists = stage(instance, w, 0)
        return finalists, final_round(instance, finalists)
    profile, n = instance.profile, len(instance.profile.ballots)
    if instance.problem is Problem.CCAVG:  # all of the election's ballots, then the pool's
        votes = (1 << n) - 1 | _group_votes(instance, w) << n
        return None, _elect(instance.rule, instance.electorate, profile.everyone, votes)
    if instance.rule is VotingRule.PLURALITY:  # CCDVG: the groups it keeps vote
        return None, _plurality(list(map(sub, instance._group_total, _group_counts(instance, w))))
    kept = (1 << n) - 1 ^ _group_votes(instance, w)
    return None, _elect(instance.rule, profile, profile.everyone, kept)


# The public entry points check their input and compile it for the core.

def finalists_voter_partition(
    rule: VotingRule,
    tie: TieRule,
    profile: Profile,
    parts: Sequence[Iterable[int]],
) -> frozenset[str]:
    """Union over parts of the TE/TP-filtered subelection winner sets."""
    _check_kind(rule, profile)
    n = len(profile.ballots)
    parts = _voter_parts(n, _check_parts(n, parts))
    return _mask_ids(profile, _voter_finalists(rule, tie is TieRule.TE, profile, parts))


def run_two_stage_voter_partition(
    rule: VotingRule,
    tie: TieRule,
    profile: Profile,
    parts: Sequence[Iterable[int]],
) -> frozenset[str]:
    """Final winner set after partitioning the voters into ``parts``."""
    finalists = finalists_voter_partition(rule, tie, profile, parts)
    return winners(rule, profile, finalists) if finalists else finalists


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
    _check_kind(rule, profile)
    sides = _candidate_sides(profile, c1, c2)
    finalists = _mask_ids(profile, _candidate_finalists(rule, tie is TieRule.TE, profile, sides))
    return winners(rule, profile, finalists) if finalists else finalists


def _group_indices(instance: ControlInstance, selected: frozenset[str]) -> tuple[int, ...]:
    """The indices of the groups in ``selected``, ascending."""
    unknown = selected.difference(lab for lab, _ in instance.groups)
    if unknown:
        raise ValueError(f"unknown group labels: {sorted(unknown)}")
    return tuple(g for g, (lab, _) in enumerate(instance.groups) if lab in selected)


def _compile(instance: ControlInstance, w: Witness) -> tuple | None:
    """The compiled form (see ``_replay``) of an outside witness, or None
    when it breaks the problem's structural side conditions (equipartition
    size bound, group atomicity, selection budget). A witness whose shape
    does not fit the problem family, or that names unknown ballots, groups
    or candidates, is an error, also when it breaks a side condition. A
    group witness compiles to the indices of the groups it names: a voter
    partition of CCPVG to its part 2's."""
    prob, profile = instance.problem, instance.profile

    if prob in (Problem.CCPV, Problem.CCEPV, Problem.CCPKV, Problem.CCPVG):
        if prob is Problem.CCPVG and isinstance(w, GroupSelection):
            return _group_indices(instance, w.labels)
        size = instance.k if prob is Problem.CCPKV else 2
        if not isinstance(w, VoterPartition) or len(w.parts) != size:
            raise ValueError(f"{prob.value} needs a {size}-part voter partition witness")
        n = len(profile.ballots)
        parts = _check_parts(n, w.parts)
        if prob is Problem.CCEPV and abs(len(parts[0]) - len(parts[1])) > 1:
            return None
        if prob is not Problem.CCPVG:
            return _voter_parts(n, parts)
        # A group on both sides is split; otherwise part 2 selects its groups.
        first, second = ({instance.labels[i] for i in part} for part in parts)
        return None if first & second else _group_indices(instance, frozenset(second))
    if prob in _CANDIDATE_PROBLEMS:
        if not isinstance(w, CandidatePartition):
            raise ValueError(f"{prob.value} needs a candidate partition witness")
        sides = _candidate_sides(profile, w.c1, w.c2)
        if prob is Problem.CCREPC and abs(len(w.c1) - len(w.c2)) > 1:
            return None
        return sides
    if not isinstance(w, GroupSelection):  # CCDVG or CCAVG
        raise ValueError(f"{prob.value} needs a group selection witness")
    chosen = _group_indices(instance, w.labels)
    if sum(len(instance.groups[g][1]) for g in chosen) > instance.limit:
        return None
    return chosen


def _public_witness(instance: ControlInstance, w: tuple) -> Witness:
    """The witness object of the compiled witness ``w``: the inverse of
    ``_compile`` on the witnesses the oracle enumerates."""
    prob, profile = instance.problem, instance.profile
    if prob in _CANDIDATE_PROBLEMS:
        return CandidatePartition(*(_mask_ids(profile, side) for side in w))
    if prob in (Problem.CCPV, Problem.CCEPV, Problem.CCPKV):
        parts = tuple(_indices(part) if type(part) is int else part for part in w)
        if prob is Problem.CCPKV:  # padded back to k parts with empty ones
            parts += ((),) * (instance.k - len(w))
        return VoterPartition(parts)
    labels = [lab for lab, _ in instance.groups]
    return GroupSelection(map(labels.__getitem__, w))


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
    compiled = _compile(instance, w)
    if compiled is None:
        return None
    finalists, won = _replay(instance, compiled)
    profile = instance.profile
    return (None if finalists is None else _mask_ids(profile, finalists)), _mask_ids(profile, won)


class Compiled(tuple):
    """A witness compiled for ``_replay``, as the oracle enumerates them:
    ``verify_witness`` replays it without the checks that a witness from
    outside needs. Only the oracle makes them."""

    __slots__ = ()


def verify_witness(instance: ControlInstance, w: Witness | Compiled) -> bool:
    """True iff ``replay`` accepts the witness's side conditions and the
    distinguished candidate is the sole final winner. The compiled witness
    goes to the accept test (``ControlInstance._accept``): as final winners
    are finalists, it rejects with no final when stage one leaves p out, or
    when p's side of a candidate partition, elected first, does not promote p."""
    if type(w) is not Compiled:
        w = _compile(instance, w)
        if w is None:
            return False
    return instance._accept(instance, w)
