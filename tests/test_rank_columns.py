"""The packed rank columns behind plurality among a candidate subset and the
Condorcet family's pairwise margins, and the top-choice masks built from the
same fields, tested against the definitions."""

import random
import sys
import tracemalloc
from array import array
from itertools import combinations
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from electctl import Candidate, Profile, VotingRule, linear, restrict_profile, score_plurality
from electctl.elections import (
    _above,
    _columns,
    _elect,
    _field_code,
    _id_mask,
    _margin,
    _mask_ids,
    _rank_columns,
    _standing_masks,
    _top_masks,
    pairwise_margins,
)

IDS = ("p", "a", "b", "c", "d")


@st.composite
def profile_and_votes(draw, max_candidates=5):
    """A linear profile of 0-8 ballots (equal ones often) and the ``votes``
    of one election on it: None, distinct indices, indices with repeats,
    or none at all. The tests read them as the ballot mask of the indices
    (see ``vote_mask``)."""
    ids = IDS[:draw(st.integers(1, max_candidates))]
    orders = draw(st.lists(st.permutations(ids), max_size=8))
    prof = Profile(tuple(map(Candidate, ids)), tuple(linear(*o) for o in orders))
    n = len(orders)
    votes = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, n - 1), unique=True, max_size=n) if n else st.just([]),
        st.lists(st.integers(0, n - 1), min_size=2, max_size=12) if n else st.just([]),
        st.just([]),
    ))
    return prof, votes


def vote_mask(votes):
    """The ballot mask of drawn ``votes``, a repeated index once (None: all
    ballots)."""
    return None if votes is None else sum(1 << i for i in set(votes))


def voting_orders(prof, votes):
    """The orders of the ballots in the mask ``votes``, in ballot order."""
    ballots = prof.ballots if votes is None else [
        b for i, b in enumerate(prof.ballots) if votes >> i & 1]
    return [b.order for b in ballots]


def above_count(orders, a, c):
    return sum(o.index(a) < o.index(c) for o in orders)


def nonempty_subsets(ids):
    return [s for r in range(1, len(ids) + 1) for s in combinations(ids, r)]


@settings(max_examples=250, deadline=None)
@given(profile_and_votes())
def test_elect_among_every_subset_equals_the_definition(case):
    prof, votes = case[0], vote_mask(case[1])
    orders = voting_orders(prof, votes)
    voting = Profile(prof.candidates, tuple(linear(*o) for o in orders))
    for among in nonempty_subsets(prof.candidate_ids):
        mask = _id_mask(prof, among)
        # Plurality: the top scorers of the restricted election.
        scores = score_plurality(restrict_profile(voting, among))
        top = max(scores.values())
        expected = frozenset(cid for cid, score in scores.items() if score == top)
        assert _mask_ids(prof, _elect(VotingRule.PLURALITY, prof, mask, votes)) == expected
        # The Condorcet family: beaten by no other member of among.
        for rule, least in ((VotingRule.CONDORCET, 1), (VotingRule.WEAK_CONDORCET, 0)):
            expected = frozenset(
                a for a in among
                if all(above_count(orders, a, c) - above_count(orders, c, a) >= least
                       for c in among if c != a))
            assert _mask_ids(prof, _elect(rule, prof, mask, votes)) == expected


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(9, 24), st.integers(65, 140)), st.integers(1, 7),
       st.randoms(use_true_random=False))
def test_condorcet_elections_across_mask_bytes_equal_the_definition(m, n, rng):
    # All ballots voting, an election reads two nibble tables per nonzero
    # byte of among, so past 8 candidates among spans several bytes, and
    # the sparse masks have zero bytes to skip. Every among is elected
    # twice, so the tables are read back after they are built.
    ids = [f"c{i}" for i in range(m)]
    orders = [rng.sample(ids, m) for _ in range(n)]
    prof = Profile(tuple(map(Candidate, ids)), tuple(linear(*o) for o in orders))
    ranks = [[o.index(cid) for cid in ids] for o in orders]
    margin = [[sum(1 if r[a] < r[c] else -1 for r in ranks) for c in range(m)] for a in range(m)]
    amongs = [1 << rng.randrange(m), 1 << m - 1, 1 | 1 << m - 1, prof.everyone]
    amongs += [rng.getrandbits(m) | 1 << rng.randrange(m) for _ in range(15)]
    amongs += [rng.getrandbits(m) & rng.getrandbits(m) & rng.getrandbits(m)
               | 1 << rng.randrange(m) for _ in range(15)]
    for rule, least in ((VotingRule.CONDORCET, 1), (VotingRule.WEAK_CONDORCET, 0)):
        for among in amongs + amongs:
            members = [a for a in range(m) if among >> a & 1]
            expected = sum(1 << a for a in members
                           if all(margin[a][c] >= least for c in members if c != a))
            assert _elect(rule, prof, among, None) == expected, (rule, among)


@settings(max_examples=200, deadline=None)
@given(profile_and_votes())
def test_margins_and_standing_masks_equal_the_definition(case):
    prof, votes = case[0], vote_mask(case[1])
    orders = voting_orders(prof, votes)
    ids = prof.candidate_ids
    packed = _columns(prof, votes)
    margin = {(a, c): above_count(orders, ids[a], ids[c]) - above_count(orders, ids[c], ids[a])
              for a in range(len(ids)) for c in range(len(ids)) if a != c}
    for (a, c), expected in margin.items():
        assert _margin(*packed, a, c) == expected
    # Per c, the candidates c leaves standing: itself and every a with
    # margin(a, c) >= least.
    for least in (0, 1):
        expected = tuple(sum(1 << a for a in range(len(ids)) if a == c or margin[a, c] >= least)
                         for c in range(len(ids)))
        assert _standing_masks(packed, least) == expected


def field_widths():
    """Each distinct field width, in bits, in the order ``_field_code``
    tries them."""
    return sorted({8 * array(code).itemsize for code in "BHIQ"})


def test_each_field_code_holds_ranks_up_to_its_guard_bit():
    # The widest field holds ranks no profile in memory reaches, so it is
    # checked here alone.
    for bits in field_widths():
        top = 2 ** (bits - 1) - 1  # the largest rank below the guard bit
        assert 8 * array(_field_code(top + 1)).itemsize == bits
        if bits < field_widths()[-1]:
            assert 8 * array(_field_code(top + 2)).itemsize > bits


def extreme_profile(m):
    """Three ballots over m candidates at the extreme ranks: ballot 0 ranks
    c0 above c1 by the widest gap, ballot 1 ranks c1 above c0, and ballot 2
    ranks c0 above c1 by one."""
    ids = tuple(f"c{i}" for i in range(m))
    rest = ids[2:]
    orders = (("c0",) + rest + ("c1",), ("c1",) + rest + ("c0",), rest + ("c0", "c1"))
    return Profile(tuple(map(Candidate, ids)), tuple(linear(*o) for o in orders))


def test_each_field_width_holds_its_largest_rank():
    # 128 candidates fill one-byte fields (rank 127) and 32,768 two-byte
    # ones (rank 32,767); 32,769 is the first profile of four-byte fields.
    for m, bits in ((128, 8), (32_768, 16), (32_769, 32)):
        top = m - 1
        assert 8 * array(_field_code(m)).itemsize == bits
        columns, guard = extreme_profile(m).columns
        assert len(columns) == m
        assert guard == sum(1 << (i * bits + bits - 1) for i in range(3))
        assert columns[0] == top << bits | (top - 1) << 2 * bits
        assert columns[1] == top | top << 2 * bits
        assert _above(columns, guard, 0, 1) == (1 << bits - 1) | (1 << 3 * bits - 1)
        assert _above(columns, guard, 1, 0) == 1 << 2 * bits - 1
        assert (_margin(columns, guard, 0, 1), _margin(columns, guard, 1, 0)) == (1, -1)
        for least in (0, 1):
            assert _standing_masks((columns[:2], guard), least) == (0b01, 0b11)


def swap_fields(column, width, n):
    """``column`` with the bytes of each of its n fields of ``width`` bytes
    reversed."""
    data = column.to_bytes(n * width, "little")
    return int.from_bytes(b"".join(data[i:i + width][::-1] for i in range(0, n * width, width)),
                          "little")


def test_columns_read_little_endian_on_either_byte_order(monkeypatch):
    # On a host of the other byte order the fields are swapped before the
    # columns read them: one-byte columns stay as they are, and wider ones
    # read as each field's bytes reversed. The guard is built apart.
    other = "big" if sys.byteorder == "little" else "little"
    for m in (128, 32_768, 32_769):
        prof = extreme_profile(m)
        width = array(_field_code(m)).itemsize
        native_columns, native_guard = _rank_columns(prof.index, prof.ballots)
        with monkeypatch.context() as patch:
            patch.setattr("electctl.elections.sys", SimpleNamespace(byteorder=other))
            columns, guard = _rank_columns(prof.index, prof.ballots)
        assert guard == native_guard
        assert columns == tuple(swap_fields(c, width, 3) for c in native_columns)
        assert (columns == native_columns) == (width == 1)


def top_mask_definition(tops, c):
    return sum(1 << i for i, top in enumerate(tops) if top == c)


def test_top_masks_equal_the_definition_on_either_byte_order(monkeypatch):
    # One-, two- and four-byte fields; on a host of the other byte order the
    # fields are swapped before the planes are read, so skipping the swap
    # would match a two-byte top against each candidate's bytes reversed.
    for m in (1, 3, 256, 300, 32_769):
        tops = tuple((7 * i * i + i) % m for i in range(40)) + (m - 1, 0, m - 1)
        assert _top_masks(tops, m) == tuple(top_mask_definition(tops, c) for c in range(m))
        assert _top_masks((), m) == (0,) * m
    other = "big" if sys.byteorder == "little" else "little"
    tops = (0, 299, 1, 256, 44, 1, 299, 258)
    with monkeypatch.context() as patch:
        patch.setattr("electctl.elections.sys", SimpleNamespace(byteorder=other))
        swapped = _top_masks(tops, 300)
        assert _top_masks((0, 2, 1, 2), 3) == tuple(top_mask_definition((0, 2, 1, 2), c)
                                                    for c in range(3))
    assert swapped == tuple(top_mask_definition(tops, (c & 255) << 8 | c >> 8)
                            for c in range(300))


def test_no_ballots_pack_to_empty_columns():
    empty = Profile(tuple(map(Candidate, ("p", "a", "b"))))
    assert empty.columns == ((0, 0, 0), 0)
    prof = Profile(tuple(map(Candidate, ("p", "a"))), (linear("p", "a"), linear("a", "p")))
    packed = _columns(prof, 0)
    assert packed == ((0, 0), 0)
    assert _margin(*packed, 0, 1) == _margin(*packed, 1, 0) == 0
    # Nobody votes: every margin is 0, so only weakCondorcet keeps a rival.
    assert _standing_masks(packed, 0) == (0b11, 0b11)
    assert _standing_masks(packed, 1) == (0b01, 0b10)


# One ballot, then four equal ones after it.
REPEATED = Profile(tuple(map(Candidate, ("p", "a", "b", "c"))),
                   (linear("p", "a", "b", "c"),)
                   + tuple(linear("b", "p", "c", "a") for _ in range(4)))


@settings(max_examples=150, deadline=None)
@given(profile_and_votes())
@example((REPEATED, None))
@example((REPEATED, [1, 1, 0, 4, 0]))
def test_a_shared_ballot_object_packs_like_equal_copies(case):
    # The profiles drawn hold equal ballots as distinct objects; here each
    # order becomes one object, so a repeat copies the fields of its first
    # occurrence (in REPEATED, not those of ballot 0).
    prof, votes = case[0], vote_mask(case[1])
    shared = {b.order: b for b in prof.ballots}
    one = Profile(prof.candidates, tuple(shared[b.order] for b in prof.ballots))
    assert one.columns == prof.columns
    assert _columns(one, votes) == _columns(prof, votes)


def test_a_profile_wider_than_one_byte_fields():
    # 130 candidates need rank 129, which leaves no guard bit in a byte.
    ids = tuple(f"c{i}" for i in range(130))
    orders = (ids, ids[::-1], ids[1:] + ids[:1])
    prof = Profile(tuple(map(Candidate, ids)), tuple(linear(*o) for o in orders))
    assert _field_code(len(ids)) != "B"
    margins = pairwise_margins(prof)
    assert margins[("c129", "c0")] == 1 and margins[("c1", "c0")] == 1
    assert margins[("c2", "c128")] == 1
    # Among c0, c2: c0 tops ballot 0, c2 the others; among c0, c1, c129:
    # one ballot each.
    among = _id_mask(prof, ("c0", "c2"))
    assert _mask_ids(prof, _elect(VotingRule.PLURALITY, prof, among, None)) == {"c2"}
    among = _id_mask(prof, ("c0", "c1", "c129"))
    assert (_mask_ids(prof, _elect(VotingRule.PLURALITY, prof, among, None))
            == {"c0", "c1", "c129"})


def test_condorcet_masks_stay_small_on_a_thousand_candidates():
    # 1,000 candidates and 10 rotations of their order: one standing mask
    # per candidate, counted pair by pair on the rank columns, with no table
    # of the 999,000 ordered pairs (about 100 MB as a dict).
    ids = ["p"] + [f"c{i}" for i in range(1, 1000)]
    prof = Profile(tuple(map(Candidate, ids)),
                   tuple(linear(*ids[i:], *ids[:i]) for i in range(10)))
    tracemalloc.start()
    try:
        won = _elect(VotingRule.WEAK_CONDORCET, prof, prof.everyone, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak
    # Nobody wins: ballots 1-9 rank c9 above p, ballot j alone ranks c_j
    # above c_(j-1) for 1 <= j <= 9, and no ballot does for j >= 10.
    assert won == 0
    # Ballots 1-5 rank c5 above p and the other five p above c5: a tie.
    assert _elect(VotingRule.WEAK_CONDORCET, prof, _id_mask(prof, ("p", "c5")), None) == 0b100001
    assert _elect(VotingRule.CONDORCET, prof, _id_mask(prof, ("p", "c5")), None) == 0
    # Seeded random orders: the nibble table entries are wide ints, not the
    # rotations' shared 0. The bound holds with the tables of both rules
    # built and every byte value of every byte of a candidate mask elected.
    rng = random.Random(1)
    prof = Profile(prof.candidates, tuple(linear(*rng.sample(ids, 1000)) for _ in range(10)))
    pairs = [(a, 999 - a) for a in range(0, 500, 7)]
    between = {}
    tracemalloc.start()
    try:
        won = _elect(VotingRule.WEAK_CONDORCET, prof, prof.everyone, None)
        for rule in (VotingRule.WEAK_CONDORCET, VotingRule.CONDORCET):
            between[rule] = [_elect(rule, prof, 1 << a | 1 << c, None) for a, c in pairs]
            for k in range(0, 1000, 8):
                for b in range(1, 256):
                    _elect(rule, prof, b << k, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak
    assert won == 0  # nobody ties or beats all 999 rivals
    columns, guard = prof.columns
    margins = [_margin(columns, guard, a, c) for a, c in pairs]
    assert between[VotingRule.WEAK_CONDORCET] == [
        (margin >= 0) << a | (margin <= 0) << c for margin, (a, c) in zip(margins, pairs)]
    assert between[VotingRule.CONDORCET] == [
        (margin > 0) << a | (margin < 0) << c for margin, (a, c) in zip(margins, pairs)]


def test_columns_of_a_thousand_distinct_ballots_stay_small():
    # 1,000 candidates and 1,000 rotations of their order, each ballot its
    # own object: one two-byte field per rank, about 2 MB of buffer and
    # 2 MB of columns, and no room for an int object per rank (about 28 MB).
    ids = [f"c{i}" for i in range(1000)]
    prof = Profile(tuple(map(Candidate, ids)),
                   tuple(linear(*ids[i:], *ids[:i]) for i in range(1000)))
    tracemalloc.start()
    try:
        columns, guard = prof.columns
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert guard.bit_count() == 1000
    # Ballot i ranks c0 at (1000 - i) % 1000; only ballot 1 ranks c1 above c0.
    assert columns[0] == sum((1000 - i) % 1000 << 16 * i for i in range(1000))
    assert _margin(columns, guard, 0, 1) == 998
