"""Candidate/ballot data model and single-stage winner determination.

Five voting rules are supported: plurality, approval, Condorcet,
weakCondorcet, and the artificial rule "system E" whose outcome depends on
four specially tagged candidates and on the number of voters mod 4.

Conventions for degenerate elections:
  * a single-candidate election has that candidate as unique winner under
    plurality, approval, Condorcet, and weakCondorcet (vacuous domination);
  * with no voters, plurality/approval make every candidate a winner (all
    tie at 0), Condorcet elects nobody (strictly-more-than-half of zero
    votes fails), and weakCondorcet elects everybody;
  * system E follows its four-branch definition literally, so even a
    single-candidate system-E election can have no winner.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Mapping


class VotingRule(Enum):
    PLURALITY = "plurality"
    APPROVAL = "approval"
    CONDORCET = "condorcet"
    WEAK_CONDORCET = "weakCondorcet"
    SYSTEM_E = "systemE"


LINEAR_RULES = frozenset(
    {VotingRule.PLURALITY, VotingRule.CONDORCET, VotingRule.WEAK_CONDORCET}
)

SPECIAL_INDICES = (0, 1, 2, 3)


@dataclass(frozen=True)
class Candidate:
    """A candidate: an opaque id plus an optional system-E special tag."""

    id: str
    special_index: int | None = None

    def __post_init__(self):
        if self.special_index is not None and self.special_index not in SPECIAL_INDICES:
            raise ValueError(f"special_index must be in 0..3, got {self.special_index}")


@dataclass(frozen=True)
class Ballot:
    """Either a strict linear order or an approval set over the candidates.

    Exactly one of ``order`` / ``approvals`` is set.
    """

    order: tuple[str, ...] | None = None
    approvals: frozenset[str] | None = None

    def __post_init__(self):
        if (self.order is None) == (self.approvals is None):
            raise ValueError("ballot must have exactly one of order/approvals")
        if self.order is not None:
            object.__setattr__(self, "order", tuple(self.order))
        else:
            object.__setattr__(self, "approvals", frozenset(self.approvals))

    @property
    def kind(self) -> str:
        return "linear" if self.order is not None else "approval"


def linear(*order: str) -> Ballot:
    return Ballot(order=tuple(order))


def approval(approved: Iterable[str]) -> Ballot:
    return Ballot(approvals=frozenset(approved))


@dataclass(frozen=True)
class Profile:
    """An ordered candidate set plus a multiset of ballots over it.

    Ballots are homogeneous in kind and each references exactly the
    profile's candidates (linear orders are permutations; approval sets are
    subsets). Instances are immutable; derived tables (candidate ids, ballot
    kind, pairwise margins) are computed once, on first use.
    """

    candidates: tuple[Candidate, ...]
    ballots: tuple[Ballot, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "ballots", tuple(self.ballots))
        if not self.candidates:
            raise ValueError("profile needs at least one candidate")
        ids = self.candidate_ids
        idset = self.candidate_id_set
        if len(idset) != len(ids):
            raise ValueError("duplicate candidate ids")
        specials = [c.special_index for c in self.candidates if c.special_index is not None]
        if len(specials) != len(set(specials)):
            raise ValueError("duplicate special_index values")
        kinds = {b.kind for b in self.ballots}
        if len(kinds) > 1:
            raise ValueError("mixed ballot kinds in one profile")
        for b in self.ballots:
            if b.order is not None:
                if len(b.order) != len(ids) or frozenset(b.order) != idset:
                    raise ValueError(f"linear ballot {b.order} is not a permutation of {ids}")
            else:
                if not b.approvals <= idset:
                    raise ValueError(f"approval ballot mentions unknown candidates: "
                                     f"{sorted(b.approvals - idset)}")

    @cached_property
    def candidate_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.candidates)

    @cached_property
    def candidate_id_set(self) -> frozenset[str]:
        return frozenset(self.candidate_ids)

    @cached_property
    def kind(self) -> str | None:
        """Ballot kind, or None for an empty (kind-agnostic) profile."""
        return self.ballots[0].kind if self.ballots else None

    @cached_property
    def _margins(self) -> Mapping[tuple[str, str], int]:
        """Pairwise majority margins; read them through ``pairwise_margins``."""
        return _margin_table(self.candidate_ids, self.ballots)


def _margin_table(ids: tuple[str, ...], ballots: Iterable[Ballot]) -> dict[tuple[str, str], int]:
    """Pairwise majority margins over ``ids`` of the linear ballots ``ballots``."""
    pref = Counter(chain.from_iterable(combinations(b.order, 2) for b in ballots))
    margins = {}
    for i, a in enumerate(ids):
        for c in ids[i + 1:]:
            m = pref[(a, c)] - pref[(c, a)]
            margins[(a, c)] = m
            margins[(c, a)] = -m
    return margins


def _check_kind(rule: VotingRule, profile: Profile) -> None:
    want = "linear" if rule in LINEAR_RULES else "approval"
    if profile.kind is not None and profile.kind != want:
        raise ValueError(f"{rule.value} requires {want} ballots, got {profile.kind}")


def _candidate_subset(profile: Profile, subset: Iterable[str]) -> frozenset[str]:
    keep = frozenset(subset)
    if not keep:
        raise ValueError("cannot restrict to an empty candidate set")
    known = profile.candidate_id_set
    if not keep <= known:
        raise ValueError(f"unknown candidates in subset: {sorted(keep - known)}")
    return keep


def restrict_profile(profile: Profile, subset: Iterable[str]) -> Profile:
    """Project the profile onto a nonempty candidate subset.

    Linear ballots keep their relative order; approval ballots keep only
    the retained candidates. Special tags survive the restriction. This is
    the reference semantics of ``winners(rule, profile, among=subset)``.
    """
    keep = _candidate_subset(profile, subset)
    cands = tuple(c for c in profile.candidates if c.id in keep)
    if len(keep) == len(profile.candidates):
        return profile
    ballots = []
    for b in profile.ballots:
        if b.order is not None:
            ballots.append(Ballot(order=tuple(x for x in b.order if x in keep)))
        else:
            ballots.append(Ballot(approvals=b.approvals & keep))
    return Profile(cands, tuple(ballots))


def score_plurality(profile: Profile) -> dict[str, int]:
    """Top-choice counts; every candidate appears, counts sum to ||V||."""
    _check_kind(VotingRule.PLURALITY, profile)
    return _plurality_scores(profile.ballots, profile.candidate_ids)


def score_approval(profile: Profile) -> dict[str, int]:
    """Approval counts; every candidate appears."""
    _check_kind(VotingRule.APPROVAL, profile)
    return _approval_scores(profile.ballots, profile.candidate_ids)


def _plurality_scores(votes: Iterable[Ballot], among: Iterable[str]) -> dict[str, int]:
    """Per candidate of ``among``: the ballots that rank it first among them."""
    scores = dict.fromkeys(among, 0)
    for b in votes:
        for cid in b.order:
            if cid in scores:
                scores[cid] += 1
                break
    return scores


def _approval_scores(votes: Iterable[Ballot], among: Iterable[str]) -> dict[str, int]:
    """Per candidate of ``among``: the ballots that approve it."""
    scores = dict.fromkeys(among, 0)
    for b in votes:
        for cid in b.approvals:
            if cid in scores:
                scores[cid] += 1
    return scores


def majority_margin(profile: Profile, a: str, b: str) -> int:
    """(#ballots ranking a above b) - (#ballots ranking b above a)."""
    if a == b:
        raise ValueError("majority_margin needs two distinct candidates")
    return pairwise_margins(profile)[(a, b)]


def pairwise_margins(profile: Profile) -> Mapping[tuple[str, str], int]:
    """All pairwise majority margins, computed once and cached on the profile."""
    _check_kind(VotingRule.CONDORCET, profile)
    return profile._margins


def condorcet_winners_from_margins(
    margins: Mapping[tuple[str, str], int],
    candidate_ids: Iterable[str],
    weak: bool,
) -> frozenset[str]:
    """Condorcet(-style) winners of the subelection on ``candidate_ids``.

    Restricting a linear-order profile to a candidate subset preserves
    pairwise margins, so subelection winners are determined by the full
    profile's margin table alone.
    """
    ids = tuple(candidate_ids)
    least = 0 if weak else 1  # margins are ints, so "> 0" is ">= 1"
    return frozenset(a for a in ids
                     if all(margins[(a, b)] >= least for b in ids if b != a))


def _argmax(scores: dict[str, int]) -> frozenset[str]:
    top = max(scores.values())
    return frozenset(cid for cid, s in scores.items() if s == top)


def _system_e_winners(
    profile: Profile, among: frozenset[str], votes: tuple[Ballot, ...]
) -> frozenset[str]:
    cands = [c for c in profile.candidates if c.id in among]
    by_index = {c.special_index: c.id for c in cands if c.special_index is not None}
    present = frozenset(by_index)
    nonspecial = [c.id for c in cands if c.special_index is None]

    def approval_winners_nonspecial() -> frozenset[str]:
        if not nonspecial:
            return frozenset()
        return _argmax(_approval_scores(votes, nonspecial))

    if len(cands) <= 4:
        if present in (frozenset({0, 2}), frozenset({1, 3})):
            return approval_winners_nonspecial()
        return frozenset()
    if present >= frozenset(SPECIAL_INDICES):
        result = {by_index[len(votes) % 4]}
        sub = approval_winners_nonspecial()
        if len(sub) == 1:
            result |= sub
        return frozenset(result)
    return frozenset()


def winners(rule: VotingRule, profile: Profile, among: Iterable[str] | None = None,
            votes: tuple[Ballot, ...] | None = None) -> frozenset[str]:
    """Winner set of a one-stage election under the given rule.

    ``among``, a nonempty subset of the candidate ids, limits the election
    to those candidates: the result equals
    ``winners(rule, restrict_profile(profile, among))``, computed from the
    full profile without building the restricted one. ``votes`` (by default
    ``profile.ballots``; not re-checked) are the ballots that vote: the
    result equals ``winners(rule, Profile(profile.candidates, votes), among)``
    without building that profile.
    """
    _check_kind(rule, profile)
    among = profile.candidate_id_set if among is None else _candidate_subset(profile, among)
    votes = profile.ballots if votes is None else votes
    if rule is VotingRule.PLURALITY:
        return _argmax(_plurality_scores(votes, among))
    if rule is VotingRule.APPROVAL:
        return _argmax(_approval_scores(votes, among))
    if rule in (VotingRule.CONDORCET, VotingRule.WEAK_CONDORCET):
        margins = (pairwise_margins(profile) if votes is profile.ballots
                   else _margin_table(profile.candidate_ids, votes))
        return condorcet_winners_from_margins(
            margins, among, weak=rule is VotingRule.WEAK_CONDORCET
        )
    return _system_e_winners(profile, among, votes)
