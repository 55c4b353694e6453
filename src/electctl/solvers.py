"""Polynomial-time decision procedures for the tractable control problems.

Each solver validates that the instance matches its (problem, rule, tie)
combination, returns a Decision carrying a verifiable witness on yes, and
reports the number of cases it examined. Iteration order is deterministic:
candidates in instance order, scores ascending, so the returned witness is
reproducible.
"""

from __future__ import annotations

from itertools import combinations

from .elections import Profile, VotingRule, winners
from .two_stage import (
    NO,
    YES,
    CandidatePartition,
    ControlInstance,
    Decision,
    Problem,
    TieRule,
    VoterPartition,
    final_round,
    run_two_stage_candidate_partition,
)


class UnsupportedInstance(ValueError):
    """The instance's (problem, rule, tie) has no polynomial solver here."""


def _require(instance: ControlInstance, problem: Problem,
             rule: VotingRule, tie: TieRule) -> None:
    got = (instance.problem, instance.rule, instance.tie)
    if got != (problem, rule, tie):
        raise UnsupportedInstance(
            f"solver handles {problem.value}/{rule.value}/{tie.value}, "
            f"got {got[0].value}/{got[1].value}/{got[2].value if got[2] else '-'}"
        )


def _top_classes(profile: Profile) -> dict[str, list[int]]:
    classes: dict[str, list[int]] = {cid: [] for cid in profile.candidate_ids}
    for i, b in enumerate(profile.ballots):
        classes[b.order[0]].append(i)
    return classes


def _extend_to_equipartition(classes, score, free, pinned_v1, kp_cap, cap2, lo, hi):
    """Grow a partially pinned bipartition into an equipartition.

    ``pinned_v1`` fixes the V1 count for the case's named candidates (the
    rest of each such class goes to V2). Every free candidate may hold at
    most ``kp_cap - 1`` votes in V1 (keeping p uniquely on top there) and
    at most ``cap2`` votes in V2. Free votes are pushed into V1 first, then
    rebalanced toward V2 until the sizes are within one of each other.
    Returns the two index parts, or None.
    """
    v1 = dict(pinned_v1)
    v2 = {cid: score[cid] - cnt for cid, cnt in pinned_v1.items()}
    for d in free:
        a = min(score[d], kp_cap - 1)
        v1[d] = a
        v2[d] = score[d] - a
        if v2[d] > cap2:
            return None
    size1 = sum(v1.values())
    if size1 < lo:
        return None
    excess = size1 - hi
    for d in free:
        if excess <= 0:
            break
        move = min(v1[d], cap2 - v2[d], excess)
        v1[d] -= move
        v2[d] += move
        excess -= move
    if excess > 0:
        return None
    part1, part2 = [], []
    for cid, cls in classes.items():
        take = v1.get(cid, 0)
        part1.extend(cls[:take])
        part2.extend(cls[take:])
    return tuple(sorted(part1)), tuple(sorted(part2))


def solve_plurality_ccepv_te(instance: ControlInstance) -> Decision:
    """Plurality control by equipartition of voters, ties-eliminate.

    Searches for an equipartition (V1, V2) with p the unique plurality
    winner of V1 and V2 either (1) uniquely won by some c that p then beats
    head-to-head in the final, (2) won (possibly tied) by p, or (3) tied
    between at least two candidates and hence eliminated. Each condition is
    checked by looping over the pinned candidates' per-part counts and
    greedily extending to an equipartition.
    """
    _require(instance, Problem.CCEPV, VotingRule.PLURALITY, TieRule.TE)
    profile, p = instance.profile, instance.p
    ids = profile.candidate_ids
    n = len(profile.ballots)
    lo, hi = n // 2, (n + 1) // 2
    classes = _top_classes(profile)
    score = {cid: len(cls) for cid, cls in classes.items()}
    cases = 0

    def yes(parts):
        return Decision(YES, VoterPartition(parts), {"cases": cases})

    if len(ids) == 1:
        cases = 1
        return yes((tuple(range(hi)), tuple(range(hi, n))))

    others = [cid for cid in ids if cid != p]

    # Condition 1: V2 has a unique winner c and p beats c in the final.
    # p is unique in V1 once score[c] - kc <= kp - 1, and c in V2 once
    # score[p] - kp <= kc - 1; both hold from kc = start on. Each kc below
    # start is a case that fails them, counted without a loop.
    for c in others:
        if winners(instance.rule, profile, (p, c)) != {p}:
            continue
        free = [d for d in others if d != c]
        for kp in range(1, score[p] + 1):
            start = max(1, score[c] - kp + 1, score[p] - kp + 1)
            cases += min(start, score[c] + 1) - 1
            for kc in range(start, score[c] + 1):
                cases += 1
                parts = _extend_to_equipartition(
                    classes, score, free,
                    {p: kp, c: score[c] - kc}, kp, kc - 1, lo, hi)
                if parts:
                    return yes(parts)

    # Condition 2: p is among the winners of V2.
    for kp in range(1, score[p] + 1):
        cases += 1
        parts = _extend_to_equipartition(
            classes, score, others, {p: kp}, kp, score[p] - kp, lo, hi)
        if parts:
            return yes(parts)

    # Condition 3: V2 is tied between two candidates other than p. p is
    # unique in V1 once score[c] - kc and score[c2] - kc are at most kp - 1,
    # and c, c2 win V2 once score[p] - kp <= kc; the kc below start are
    # counted as in condition 1.
    for c, c2 in combinations(others, 2):
        free = [d for d in others if d not in (c, c2)]
        top = min(score[c], score[c2])
        for kp in range(1, score[p] + 1):
            start = max(0, score[c] - kp + 1, score[c2] - kp + 1, score[p] - kp)
            cases += min(start, top + 1)
            for kc in range(start, top + 1):
                cases += 1
                parts = _extend_to_equipartition(
                    classes, score, free,
                    {p: kp, c: score[c] - kc, c2: score[c2] - kc}, kp, kc, lo, hi)
                if parts:
                    return yes(parts)

    return Decision(NO, stats={"cases": cases})


# The most cases the CCPkV solver reports: its count is a closed form that
# can run to a million digits, and past this no walk could have reached it.
CASES_LIMIT = 2 ** 63 - 1


def _multisets(kinds: int, size: int, cap: int) -> int:
    """C(kinds + size - 1, size), the multisets of ``size`` items drawn from
    ``kinds`` kinds, or ``cap + 1`` once that exceeds ``cap``. Each step of
    the product at least doubles it, so it stops within about log2(cap)
    steps however large ``size`` is."""
    if kinds <= 0:
        return int(size == 0)
    top, j = kinds + size - 1, min(size, kinds - 1)
    count = 1
    for i in range(1, j + 1):
        count = count * (top - j + i) // i
        if count > cap:
            return cap + 1
    return count


def _rank(runs: list[tuple[int, int]], kinds: int, size: int, cap: int) -> int:
    """The position, from 0, of a multiset of ``size`` items among all of
    them in ``combinations_with_replacement(range(kinds), size)`` order, or
    ``cap + 1`` once that exceeds ``cap``. The multiset is given as runs of
    (item, copies), items ascending."""
    rank, prev, left = 0, 0, size
    for item, copies in runs:
        left -= 1
        if item > prev:
            # The multisets that agree up to this run's first place and hold
            # an item in [prev, item) there; by the hockey-stick identity.
            # The first of those terms is at least a kinds-th of ``above``.
            above = _multisets(kinds - prev, left + 1, cap * kinds)
            if above > cap * kinds:
                return cap + 1
            rank += above - _multisets(kinds - item, left + 1, cap * kinds)
            if rank > cap:
                return cap + 1
        prev = item
        left -= copies - 1
    return rank


def solve_plurality_ccpkv_te(instance: ControlInstance) -> Decision:
    """Plurality control by k-partition of voters, ties-eliminate.

    Guesses, per part, either a unique winner with its top-choice count or
    an eliminating tied pair with its count (count 0 covering the empty
    part). p's own part comes first, with count s1 = 1, 2, ...; the other
    k - 1 guesses form a multiset of ``options``, taken in
    ``combinations_with_replacement`` order. The first multiset whose
    finalists make p the sole final winner and whose per-candidate
    top-choice counts can realize it is the answer. Realizability
    decomposes per candidate: pinned exact counts must not exceed the
    candidate's total, and the remainder must fit under the caps of the
    parts that do not pin it.

    The walk visits only multisets that can pass. Pinned counts only grow,
    so a prefix that pins more than a score is cut. The last guess is
    chosen per block of options sharing (kind, members): its feasible
    counts form an interval, and one final round decides the block. The
    empty guess pins nothing, so its copies are placed in closed form, and
    a passing multiset holds at most n other guesses: the walk is bounded
    by n and m, never by k. ``cases`` is the number of multisets the plain
    enumeration would have examined, computed rather than counted, and
    left out when it exceeds ``CASES_LIMIT``.
    """
    _require(instance, Problem.CCPKV, VotingRule.PLURALITY, TieRule.TE)
    profile, p, k = instance.profile, instance.p, instance.k
    bit = profile.bit
    ids = profile.candidate_ids
    n = len(profile.ballots)
    classes = _top_classes(profile)
    score = {cid: len(cls) for cid, cls in classes.items()}

    if len(ids) == 1:
        parts = (tuple(range(n)),) + ((),) * (k - 1)
        return Decision(YES, VoterPartition(parts), {"cases": 1})

    # A guess per part: ("win", (c,), s) or ("elim", (d, e), s). The empty
    # part is representable by any pair at count 0; keep a single copy, the
    # first pair's. The options sharing (kind, members) form a block:
    # (first index, last index, is win, member positions, first s).
    slot = {cid: i for i, cid in enumerate(ids)}
    options: list[tuple[str, tuple[str, ...], int]] = []
    blocks: list[tuple[int, int, bool, tuple[int, ...], int]] = []
    for c in ids:
        if score[c]:
            blocks.append((len(options), len(options) + score[c] - 1, True, (slot[c],), 1))
        for s in range(1, score[c] + 1):
            options.append(("win", (c,), s))
    empty = len(options)
    for i, (d, e) in enumerate(combinations(ids, 2)):
        s0 = 0 if i == 0 else 1
        top = min(score[d], score[e])
        if top >= s0:
            blocks.append((len(options), len(options) + top - s0, False, (slot[d], slot[e]), s0))
        for s in range(s0, top + 1):
            options.append(("elim", (d, e), s))

    def build_parts(specs) -> tuple[tuple[int, ...], ...]:
        kparts: list[list[int]] = [[] for _ in specs]
        for h in ids:
            cls = classes[h]
            alloc, caps = [], []
            r = score[h]
            for kind, members, s in specs:
                if h in members:
                    alloc.append(s)
                    caps.append(0)
                    r -= s
                else:
                    alloc.append(0)
                    caps.append(s - 1 if kind == "win" else s)
            for i, cap in enumerate(caps):
                take = min(r, cap)
                alloc[i] += take
                r -= take
            pos = 0
            for i, a in enumerate(alloc):
                kparts[i].extend(cls[pos:pos + a])
                pos += a
        return tuple(tuple(sorted(part)) for part in kparts)

    # Candidates by position. A walk state is (slack, room, finalists):
    # slack[h] is h's top-choice count not yet pinned, room[h] the caps of
    # the guessed parts that do not pin h, finalists a bitmask. A complete
    # guess passes when slack[h] <= room[h] for every h and the final round
    # leaves p alone.
    cbit = [bit[cid] for cid in ids]
    pbit, pi = bit[p], slot[p]

    def passes(slack, room, finalists) -> bool:
        return (all(map(int.__le__, slack, room))
                and final_round(instance, finalists) == pbit)

    def add(state, index, copies):
        slack, room, finalists = state
        kind, members, s = options[index]
        slack, pinned = slack[:], tuple(map(slot.get, members))
        for h in pinned:
            slack[h] -= s * copies
        cap = (s - 1 if kind == "win" else s) * copies
        room = [r if h in pinned else r + cap for h, r in enumerate(room)]
        if kind == "win":
            finalists |= cbit[pinned[0]]
        return slack, room, finalists

    def last_guess(state, lo):
        """The first option at index lo or later that completes the guess."""
        slack, room, finalists = state
        need = list(map(int.__sub__, slack, room))
        top = max(need)
        alone = need.count(top) == 1
        elim_final = None
        for first, last, win, members, s0 in blocks:
            if last < lo:
                continue
            lower = s0 + max(first, lo) - first
            upper = s0 + last - first
            if win:
                c, = members
                # A win at count s takes s from c's slack and adds s - 1 to
                # every other room: c needs s >= need[c], any other h
                # s >= need[h] + 1.
                lower = max(lower, need[c] if alone and need[c] == top else top + 1)
                if (lower <= min(upper, slack[c])
                        and final_round(instance, finalists | cbit[c]) == pbit):
                    return first + lower - s0
            else:
                # A pair at count s takes s from both members' slack and adds
                # s to every other room: each h needs s >= need[h].
                lower = max(lower, top)
                if lower <= min(upper, *map(slack.__getitem__, members)):
                    if elim_final is None:
                        elim_final = final_round(instance, finalists) == pbit
                    if elim_final:
                        return first + lower - s0
        return None

    def extensions(state, lo, left):
        """(run, state, lo, left) for each first run of a completion of
        ``left`` >= 2 guesses from index ``lo`` on, in the enumeration's
        order; left 0 marks a passing multiset."""
        slack = state[0]
        for first, last, win, members, s0 in blocks:
            if last < lo:
                continue
            index = max(first, lo)
            if index == empty:
                # The empty guess's copies, then u >= 0 pair guesses, each
                # pinning at least two ballots; fewer pairs come first.
                if passes(*state):
                    yield (empty, left), state, None, 0
                for u in range(1, min(left - 1, sum(slack) // 2) + 1):
                    yield (empty, left - u), state, empty + 1, u
                index += 1
            if not win and 2 * left > sum(slack):  # only pair guesses are left
                return
            for index in range(index, last + 1):
                s = s0 + index - first
                most = min(left, *(slack[h] // s for h in members))
                if not most:
                    break
                for copies in range(most, 0, -1):
                    after = add(state, index, copies)
                    if copies < left:
                        yield (index, copies), after, index + 1, left - copies
                    elif passes(*after):
                        yield (index, copies), after, None, 0

    def first_passing(state, size):
        """The first passing multiset of ``size`` guesses, as runs."""
        if size == 1:
            index = last_guess(state, 0)
            return None if index is None else [(index, 1)]
        path, stack = [], [extensions(state, 0, size)]
        while stack:
            for run, after, lo, left in stack[-1]:
                if left == 0:
                    return path + [run]
                if left == 1:
                    index = last_guess(after, lo)
                    if index is not None:
                        return path + [run, (index, 1)]
                    continue
                path.append(run)
                stack.append(extensions(after, lo, left))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
        return None

    per_s1 = _multisets(len(options), k - 1, CASES_LIMIT)
    for s1 in range(1, score[p] + 1):
        slack = [score[cid] for cid in ids]
        slack[pi] -= s1
        room = [0 if h == pi else s1 - 1 for h in range(len(ids))]
        runs = first_passing((slack, room, pbit), k - 1)
        if runs is None:
            continue
        head = ("win", (p,), s1)
        picked = [(options[i], c) for i, c in runs if i != empty]
        built = build_parts([head] + [g for g, c in picked for _ in range(c)])
        wins = 1 + sum(c for g, c in picked if g[0] == "win")
        blanks = sum(c for i, c in runs if i == empty)
        parts = built[:wins] + ((),) * blanks + built[wins:]
        cases = (s1 - 1) * per_s1 + _rank(runs, len(options), k - 1, CASES_LIMIT) + 1
        return Decision(YES, VoterPartition(parts), _cases(cases))

    return Decision(NO, stats=_cases(score[p] * per_s1))


def _cases(cases: int) -> dict:
    return {"cases": cases} if cases <= CASES_LIMIT else {}


def solve_weakcondorcet_ccrpc_tp(instance: ControlInstance) -> Decision:
    """weakCondorcet runoff partition of candidates, ties-promote.

    A yes-instance is always witnessed by the partition ({p}, C - {p}):
    any rival weakCondorcet winner that ties-or-defeats p survives every
    candidate partition under TP, so no other split can do better.
    """
    _require(instance, Problem.CCRPC, VotingRule.WEAK_CONDORCET, TieRule.TP)
    profile, p = instance.profile, instance.p
    c1 = frozenset({p})
    c2 = frozenset(profile.candidate_ids) - c1
    result = run_two_stage_candidate_partition(
        instance.rule, instance.tie, profile, c1, c2)
    if result == frozenset({p}):
        return Decision(YES, CandidatePartition(c1, c2), {"cases": 1})
    return Decision(NO, stats={"cases": 1})


def solve_system_e_ccepv_tp(instance: ControlInstance) -> Decision:
    """System-E control by equipartition of voters, ties-promote.

    Always no: the special candidates reaching the runoff are exactly
    ||V1|| mod 4 and ||V2|| mod 4, and an equipartition never realizes the
    residue sets {0,2} or {1,3} that system E requires, so the runoff has
    no winners for every equipartition.
    """
    _require(instance, Problem.CCEPV, VotingRule.SYSTEM_E, TieRule.TP)
    return Decision(NO, stats={"cases": 0})


POLY_SOLVERS = {
    (Problem.CCEPV, VotingRule.PLURALITY, TieRule.TE): solve_plurality_ccepv_te,
    (Problem.CCPKV, VotingRule.PLURALITY, TieRule.TE): solve_plurality_ccpkv_te,
    (Problem.CCRPC, VotingRule.WEAK_CONDORCET, TieRule.TP): solve_weakcondorcet_ccrpc_tp,
    (Problem.CCEPV, VotingRule.SYSTEM_E, TieRule.TP): solve_system_e_ccepv_tp,
}


def solve_poly(instance: ControlInstance) -> Decision:
    """Dispatch to the polynomial solver for this instance, if one exists."""
    key = (instance.problem, instance.rule, instance.tie)
    solver = POLY_SOLVERS.get(key)
    if solver is None:
        supported = ", ".join(
            f"{pr.value}/{ru.value}/{ti.value}" for pr, ru, ti in POLY_SOLVERS
        )
        raise UnsupportedInstance(
            f"no polynomial solver for {key[0].value}/{key[1].value}"
            f"/{key[2].value if key[2] else '-'}; available: {supported}"
        )
    return solver(instance)
