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

import sys
from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, combinations, compress, count, repeat
from operator import attrgetter
from typing import Iterable, Mapping, Sequence


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


def typed_ballots(values: Sequence, ranked: bool) -> list[Ballot]:
    """A ballot per value, equal to ``linear(*value)`` if ``ranked`` and to
    ``approval(value)`` if not, for values already of the field's type
    (tuples if ``ranked``, frozensets if not). Each is made by
    ``object.__new__`` and gets the value as its one field through
    ``object.__setattr__``, both by ``map``: no Python call per ballot, and
    none of ``__init__``'s and ``__post_init__``'s per-ballot work, which
    the type of ``values`` makes moot. The other field reads None, the
    default the dataclass keeps on the class."""
    ballots = list(map(object.__new__, repeat(Ballot, len(values))))
    deque(map(object.__setattr__, ballots, repeat("order" if ranked else "approvals"), values), 0)
    return ballots


_ORDER, _APPROVALS = attrgetter("order"), attrgetter("approvals")


@dataclass(frozen=True)
class Profile:
    """An ordered candidate set plus a multiset of ballots over it.

    Ballots are homogeneous in kind and each references exactly the
    profile's candidates (linear orders are permutations; approval sets are
    subsets). Instances are immutable; derived tables are computed once, on
    first use, and live as long as the profile: candidate ids and positions,
    the ballot kind, each ballot as candidate positions and its top choice,
    each candidate's supporters as a ballot bitmask, the packed rank
    columns and the Condorcet family's nibble tables of standing masks
    (see ``_nibble_tables``). Pairwise margins are not cached:
    ``pairwise_margins`` derives them.
    """

    candidates: tuple[Candidate, ...]
    ballots: tuple[Ballot, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "ballots", tuple(self.ballots))
        if not self.candidates:
            raise ValueError("profile needs at least one candidate")
        ids = self.candidate_ids
        idset = frozenset(self.index)
        if len(idset) != len(ids):
            raise ValueError("duplicate candidate ids")
        specials = [c.special_index for c in self.candidates if c.special_index is not None]
        if len(specials) != len(set(specials)):
            raise ValueError("duplicate special_index values")
        # A document's equal ballots are one object, checked once, and each
        # check runs by ``map``; only a failed one looks for the first culprit.
        distinct = {id(b): b for b in self.ballots}.values()
        orders = list(map(_ORDER, distinct))
        if 0 < orders.count(None) < len(orders):
            raise ValueError("mixed ballot kinds in one profile")
        if orders and orders[0] is not None:
            if (set(map(len, orders)) != {len(ids)}
                    or not all(map(idset.__eq__, map(frozenset, orders)))):
                bad = next(o for o in orders if len(o) != len(ids) or frozenset(o) != idset)
                raise ValueError(f"linear ballot {bad} is not a permutation of {ids}")
        else:
            approvals = list(map(_APPROVALS, distinct))
            if not all(map(idset.issuperset, approvals)):
                bad = next(a for a in approvals if not a <= idset)
                raise ValueError(f"approval ballot mentions unknown candidates: "
                                 f"{sorted(bad - idset, key=str)}")

    @cached_property
    def candidate_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.candidates)

    @cached_property
    def kind(self) -> str | None:
        """Ballot kind, or None for an empty (kind-agnostic) profile."""
        return self.ballots[0].kind if self.ballots else None

    @cached_property
    def index(self) -> dict[str, int]:
        """Candidate id -> its position in ``candidates``: the one id table."""
        return {cid: i for i, cid in enumerate(self.candidate_ids)}

    @cached_property
    def positions(self) -> tuple[tuple[int, ...], ...]:
        """Each ballot as candidate positions: a linear order in rank order,
        an approval set in no particular order. Each ballot object is
        compiled once, and its repeats share one tuple."""
        index = self.index
        distinct = {id(b): b for b in self.ballots}
        compiled = {key: tuple(map(index.__getitem__, b.order if b.order is not None
                                   else b.approvals)) for key, b in distinct.items()}
        return tuple(map(compiled.__getitem__, map(id, self.ballots)))

    @cached_property
    def tops(self) -> tuple[int, ...]:
        """Per linear ballot, the position of its top choice."""
        index = self.index
        return tuple(index[b.order[0]] for b in self.ballots)

    @cached_property
    def supporters(self) -> tuple[int, ...]:
        """Per candidate position, the bitmask of the ballots that count for
        it (bit i is ballot i): those that rank it first (linear ballots) or
        approve it (approval ballots)."""
        if self.kind == "linear":
            return _top_masks(self.tops, len(self.candidates))
        n = len(self.ballots)
        digits = [bytearray(b"0") * n for _ in self.candidates]  # as in ``_ballot_mask``
        for i, row in enumerate(self.positions):
            for a in row:
                digits[a][i] = 49
        return tuple(int(d[::-1], 2) if n else 0 for d in digits)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], int]:
        """The rank columns of all linear ballots (see ``_rank_columns``)."""
        return _rank_columns(self.index, self.ballots)

    @cached_property
    def everyone(self) -> int:
        """The bitmask of every candidate position."""
        return (1 << len(self.candidates)) - 1

    @cached_property
    def special_bits(self) -> tuple[int, int, int, int]:
        """Per system-E special index, the bitmask of its candidate (0 when
        no candidate carries it)."""
        bits = [0] * len(SPECIAL_INDICES)
        for i, c in enumerate(self.candidates):
            if c.special_index is not None:
                bits[c.special_index] = 1 << i
        return tuple(bits)

    @cached_property
    def _standing(self) -> dict[int, list[tuple[list[int], list[int]]]]:
        """Per least margin (1 for Condorcet, 0 for weakCondorcet), the
        ``_nibble_tables`` of the ``_standing_masks`` of all ballots: filled
        by ``_elect`` on first use."""
        return {}


# A set of ballots is a bitmask, bit i ballot i, as a set of candidates is.
# Both conversions between index lists and masks go through one binary
# digit per ballot, in time linear in the ballots; shifting one ballot at a
# time into a growing int, or walking a mask with ``_members``, would be
# quadratic.

_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def _ballot_mask(indices: Iterable[int], n: int) -> int:
    """The bitmask of ``indices``, distinct ints in range(n): digit i of n
    is "1" for each index i, and the digits read backwards are the mask."""
    digits = bytearray(b"0") * n
    for i in indices:
        digits[i] = 49  # "1"
    return int(digits[::-1], 2) if n else 0


def _selectors(mask: int) -> bytes:
    """Per bit of ``mask`` from bit 0 to its highest set bit, 1 if the bit is
    set and 0 if not: the selectors for ``compress``."""
    return format(mask, "b").encode()[::-1].translate(_SELECTORS)


def _indices(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, ascending."""
    return tuple(compress(count(), _selectors(mask)))


def _field_code(m: int) -> str:
    """The ``array`` type code of the narrowest field that holds every rank
    of an m-candidate ballot, 0 to m - 1, below a clear top (guard) bit."""
    return next(code for code in "BHIQ" if (m - 1).bit_length() < 8 * array(code).itemsize)


def _top_masks(tops: Sequence[int], m: int) -> tuple[int, ...]:
    """Per candidate position below m, the ballot mask of the ballots whose
    top choice (in ``tops``) it is. The tops go into the fields of one
    array; byte k of every field, ballot 0 last, is plane k, and a ballot
    counts for c when each plane's byte is c's: ``bytes.translate`` turns a
    plane into a "1" digit where it is and "0" elsewhere."""
    if not tops:
        return (0,) * m
    fields = array(_field_code(m), tops)
    if sys.byteorder == "big":
        fields.byteswap()
    raw, width = fields.tobytes(), fields.itemsize
    planes = [raw[k::width][::-1] for k in range(width)]
    masks = []
    for c in range(m):
        mask = -1
        for k, plane in enumerate(planes):
            digit = bytearray(b"0") * 256
            digit[c >> 8 * k & 255] = 49  # "1"
            mask &= int(plane.translate(digit), 2)
        masks.append(mask)
    return tuple(masks)


def _rank_columns(index: Mapping[str, int],
                  ballots: Iterable[Ballot]) -> tuple[tuple[int, ...], int]:
    """Packed rank columns of the linear ``ballots`` over the candidates of
    ``index``: per candidate, its rank on every ballot (0 for its top
    choice) in one int, a field per ballot, plus the guard, the int with
    the top bit of every field set. The ranks go ballot by ballot into one
    buffer, so column c is every m-th field from field c; a repeat of a
    ballot object copies the fields of its first occurrence.

    No rank reaches a field's top bit, so ``((columns[c] | guard) -
    columns[a]) & guard`` borrows within no field but those where c ranks
    above a: it keeps the guard bit of exactly the ballots that rank a
    above c, and ``bit_count`` counts them.
    """
    ballots, m = tuple(ballots), len(index)
    fields = array(_field_code(m), [0]) * (len(ballots) * m)
    view, first = memoryview(fields), {}
    ranks = tuple(range(m))  # enumerate would make a new int per rank above 256
    for at, b in zip(range(0, len(fields), m), ballots):
        seen = first.setdefault(id(b), at)
        if seen < at:
            view[at:at + m] = view[seen:seen + m]
            continue
        row = view[at:at + m]  # a memoryview stores faster than the array
        for rank, cid in zip(ranks, b.order):
            row[index[cid]] = rank
    if sys.byteorder == "big":
        fields.byteswap()
    guard = (1 << 8 * fields.itemsize - 1).to_bytes(fields.itemsize, "little")
    return (tuple(int.from_bytes(fields[c::m], "little") for c in range(m)),
            int.from_bytes(guard * len(ballots), "little"))


def _above(columns: tuple[int, ...], guard: int, a: int, c: int) -> int:
    """The guard bits of the ballots that rank a above c."""
    return ((columns[c] | guard) - columns[a]) & guard


def _margin(columns: tuple[int, ...], guard: int, a: int, c: int) -> int:
    """The majority margin of a over c, on rank columns (see ``_rank_columns``)."""
    return 2 * _above(columns, guard, a, c).bit_count() - guard.bit_count()


def _standing_masks(packed: tuple[tuple[int, ...], int], least: int) -> tuple[int, ...]:
    """Per candidate position c, the bitmask of the positions a with
    margin(a, c) >= least, c's own bit included: the candidates c leaves
    standing. The Condorcet-family winners among the mask S are S and'ed
    with the standing mask of every member of S (for all ballots, through
    the ``_nibble_tables`` of each byte of S)."""
    columns, guard = packed
    n = guard.bit_count()  # the ballots, counted once per table (per pair is slower)
    masks = [1 << c for c in range(len(columns))]
    for a, c in combinations(range(len(columns)), 2):
        twice = 2 * _above(columns, guard, a, c).bit_count()  # margin(a, c) + n
        if twice >= n + least:
            masks[c] |= 1 << a
        if twice <= n - least:
            masks[a] |= 1 << c
    return tuple(masks)


def _nibble_tables(standing: tuple[int, ...]) -> list[tuple[list[int], list[int]]]:
    """Per byte of a candidate mask, from bit 0 up, the tables of its low and
    high 4 positions: the entry for a nibble value v is the AND of the
    standing masks of the positions that v selects (-1, every bit, for 0).
    A table holds at most 16 entries, built whole, so the tables hold at
    most 4 masks per candidate however many elections read them."""
    nibbles = []
    for k in range(0, len(standing), 4):
        table = [-1]
        for mask in standing[k:k + 4]:
            table += [entry & mask for entry in table]
        nibbles.append(table)
    nibbles.append([-1])  # the high nibble of a last, half-used byte
    return list(zip(nibbles[::2], nibbles[1::2]))


def _check_kind(rule: VotingRule, profile: Profile) -> None:
    want = "linear" if rule in LINEAR_RULES else "approval"
    if profile.kind is not None and profile.kind != want:
        raise ValueError(f"{rule.value} requires {want} ballots, got {profile.kind}")


def _candidate_subset(profile: Profile, subset: Iterable[str]) -> frozenset[str]:
    keep = frozenset(subset)
    if not keep:
        raise ValueError("cannot restrict to an empty candidate set")
    known = profile.index.keys()
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
    scores = dict.fromkeys(profile.candidate_ids, 0)
    for b in profile.ballots:
        scores[b.order[0]] += 1
    return scores


def score_approval(profile: Profile) -> dict[str, int]:
    """Approval counts; every candidate appears."""
    _check_kind(VotingRule.APPROVAL, profile)
    scores = dict.fromkeys(profile.candidate_ids, 0)
    for b in profile.ballots:
        for cid in b.approvals:
            scores[cid] += 1
    return scores


def majority_margin(profile: Profile, a: str, b: str) -> int:
    """(#ballots ranking a above b) - (#ballots ranking b above a)."""
    if a == b:
        raise ValueError("majority_margin needs two distinct candidates")
    _check_kind(VotingRule.CONDORCET, profile)
    columns, guard = profile.columns
    return _margin(columns, guard, profile.index[a], profile.index[b])


def pairwise_margins(profile: Profile) -> Mapping[tuple[str, str], int]:
    """All pairwise majority margins, derived from the rank columns on each call."""
    _check_kind(VotingRule.CONDORCET, profile)
    (columns, guard), ids = profile.columns, profile.candidate_ids
    margins = {}
    for a, c in combinations(range(len(ids)), 2):
        margins[ids[a], ids[c]] = margin = _margin(columns, guard, a, c)
        margins[ids[c], ids[a]] = -margin
    return margins


def condorcet_winners_from_margins(
    margins: Mapping[tuple[str, str], int],
    candidate_ids: Iterable[str],
    weak: bool,
) -> frozenset[str]:
    """Condorcet(-style) winners of the subelection on ``candidate_ids``.

    Restricting a linear-order profile to a candidate subset preserves
    pairwise margins, so subelection winners are determined by the full
    profile's margin table alone. ``winners`` decides the same from the
    profile's standing masks; this is the reference it is tested against.
    """
    ids = tuple(candidate_ids)
    least = 0 if weak else 1  # margins are ints, so "> 0" is ">= 1"
    return frozenset(a for a in ids
                     if all(margins[(a, b)] >= least for b in ids if b != a))


# The ballots that vote in ``_elect``: None for all of them, a ballot mask,
# or the index tuple of a few. An operation on a mask takes time in all n
# ballots, however few of them it holds, so a few ballots (a small voter
# part, see ``two_stage._voter_parts``) are counted one by one instead.
Votes = int | tuple[int, ...] | None


def _columns(profile: Profile, votes: Votes) -> tuple[tuple[int, ...], int]:
    """The rank columns of the ballots that vote: cached on the profile for
    all of them, built afresh from the ballots ``votes`` selects."""
    if votes is None:
        return profile.columns
    ballots = profile.ballots
    selected = (map(ballots.__getitem__, votes) if type(votes) is tuple
                else compress(ballots, _selectors(votes)))
    return _rank_columns(profile.index, selected)


def _members(mask: int) -> list[int]:
    """The candidate positions in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask_ids(profile: Profile, mask: int) -> frozenset[str]:
    """The candidate ids of the positions in ``mask``."""
    return frozenset(map(profile.candidate_ids.__getitem__, _members(mask)))


def _id_mask(profile: Profile, ids: Iterable[str]) -> int:
    """The bitmask of ``ids``, distinct ids of the profile's candidates."""
    return sum(1 << profile.index[cid] for cid in ids)


def _top(counts: Sequence[int], members: Sequence[int]) -> int:
    """The mask of the ``members`` with the highest count, ``counts`` giving
    each member's in order."""
    top = max(counts)
    return sum(1 << a for a, n in zip(members, counts) if n == top)


def _plurality(counts: Sequence[int]) -> int:
    """The plurality winners among all candidates, as a position bitmask,
    of the election whose first places per position are ``counts``: every
    candidate with the most, so everyone when nobody votes."""
    top = max(counts)
    if counts.count(top) == 1:
        return 1 << counts.index(top)
    return _top(counts, range(len(counts)))


def _scores(profile: Profile, members: Sequence[int], votes: Votes) -> list[int]:
    """Per member position, ascending, how many of the ballots that vote
    count for it (see ``Profile.supporters``): a few ballots one by one,
    otherwise each member's supporters among them."""
    if type(votes) is tuple:
        counts = [0] * len(profile.candidates)
        if profile.kind == "linear":
            for a in map(profile.tops.__getitem__, votes):
                counts[a] += 1
        else:
            for a in chain.from_iterable(map(profile.positions.__getitem__, votes)):
                counts[a] += 1
        if len(members) == len(counts):  # every position
            return counts
        return [counts[a] for a in members]
    supporters, votes = profile.supporters, -1 if votes is None else votes  # -1: every bit
    return [(supporters[a] & votes).bit_count() for a in members]


def _approval(profile: Profile, among: int, votes: Votes) -> int:
    """The approval winners among ``among`` of the ballots ``votes``."""
    members = _members(among)
    return _top(_scores(profile, members, votes), members)


def _system_e(profile: Profile, among: int, votes: Votes) -> int:
    s0, s1, s2, s3 = specials = profile.special_bits
    present = among & (s0 | s1 | s2 | s3)
    plain = among ^ present
    if among.bit_count() <= 4:
        if s0 and s2 and present == s0 | s2 or s1 and s3 and present == s1 | s3:
            return plain and _approval(profile, plain, votes)
        return 0
    if s0 and s1 and s2 and s3 and present == s0 | s1 | s2 | s3:
        voters = (len(profile.ballots) if votes is None else
                  len(votes) if type(votes) is tuple else votes.bit_count())
        won = specials[voters % 4]
        sub = _approval(profile, plain, votes)  # among has a fifth, plain, member
        return won | sub if not sub & (sub - 1) else won  # a sole plain winner joins
    return 0


def _elect(rule: VotingRule, profile: Profile, among: int, votes: Votes) -> int:
    """``winners`` on compiled input: the winners, as a position bitmask, of
    the election among the positions in the nonzero bitmask ``among`` in
    which the ballots ``votes`` (see ``Votes``) vote.
    Neither the ballot kind nor the ballots are checked; ``winners`` and
    ``two_stage`` check them first.

    Plurality over all candidates and approval count the voting ballots
    that count for each candidate (``_scores``), and ``_plurality`` and
    ``_top`` turn the counts into winners; system E takes its branch from
    the number of voting ballots. Plurality among fewer and the Condorcet
    family count on the rank columns of the voting ballots (see
    ``_rank_columns``). The Condorcet family intersects ``among`` with the
    standing mask of each of its members: when all ballots vote, with the
    cached ``_nibble_tables`` entries of each nonzero byte of ``among``, at
    most one step per 8 candidates; otherwise member by member, with masks
    counted from ``votes``.
    """
    if rule is VotingRule.PLURALITY:
        # Two counts, each the faster where it runs: the supporters (a small
        # part's tops) for the voter parts, the rank columns for the finals and
        # candidate-partition rounds (see README).
        if among == profile.everyone:
            return _plurality(_scores(profile, range(len(profile.candidates)), votes))
        columns, guard = _columns(profile, votes)
        members = _members(among)
        first = dict.fromkeys(members, guard)  # the ballots whose first choice in among is a
        for a, c in combinations(members, 2):
            above = _above(columns, guard, a, c)
            first[a] &= above
            first[c] &= ~above
        return _top([ballots.bit_count() for ballots in first.values()], members)
    if rule is VotingRule.APPROVAL:
        return _approval(profile, among, votes)
    if rule is VotingRule.SYSTEM_E:
        return _system_e(profile, among, votes)
    least = 1 if rule is VotingRule.CONDORCET else 0
    won = among
    if votes is None:  # only all ballots are cached
        tables = profile._standing.get(least)
        if tables is None:
            tables = profile._standing[least] = _nibble_tables(
                _standing_masks(profile.columns, least))
        for k, b in enumerate(among.to_bytes(len(tables), "little")):
            if b:
                low, high = tables[k]
                won &= low[b & 15] & high[b >> 4]
                if not won:
                    break
        return won
    standing = _standing_masks(_columns(profile, votes), least)
    rest = among
    while rest and won:
        low = rest & -rest
        won &= standing[low.bit_length() - 1]
        rest ^= low
    return won


def winners(rule: VotingRule, profile: Profile,
            among: Iterable[str] | None = None) -> frozenset[str]:
    """Winner set of a one-stage election under the given rule.

    ``among``, a nonempty subset of the candidate ids, limits the election
    to those candidates: the result equals
    ``winners(rule, restrict_profile(profile, among))``, computed from the
    full profile without building the restricted one. The election itself
    is ``_elect``, on the profile's cached tables.
    """
    _check_kind(rule, profile)
    mask = profile.everyone if among is None else _id_mask(
        profile, _candidate_subset(profile, among))
    return _mask_ids(profile, _elect(rule, profile, mask, None))
