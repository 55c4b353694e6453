"""Polynomial-time decision procedures for the tractable control problems.

Each solver validates that the instance matches its (problem, rule, tie)
combination, returns a Decision carrying a verifiable witness on yes, and
reports the number of cases it examined. Iteration order is deterministic:
candidates in instance order, scores ascending, so the returned witness is
reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations

from .elections import Profile, VotingRule
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
    verify_witness,
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


def _top_classes(profile: Profile) -> list[list[int]]:
    """Per candidate position, the indices of the ballots it tops."""
    classes: list[list[int]] = [[] for _ in profile.candidates]
    for i, a in enumerate(profile.tops):
        classes[a].append(i)
    return classes


def _extend_to_equipartition(classes, score, pinned, kp, cap2, lo, hi):
    """Grow a partially pinned bipartition into an equipartition.

    Each candidate's V1 count has a floor and a ceiling, both its pin if it
    is in ``pinned``; any other holds at most ``kp - 1`` votes in V1 (keeping
    p uniquely on top there) and at most ``cap2`` in V2. V1 starts at the
    ceilings, needs ``lo`` votes, and gives votes back to V2, down to the
    floors in candidate order, until it holds at most ``hi``. Returns the
    two index parts, or None.
    """
    floor = [max(0, s - cap2) for s in score]
    ceiling = [min(s, kp - 1) for s in score]
    for c, pin in pinned.items():
        floor[c] = ceiling[c] = pin
    if sum(ceiling) < lo or sum(floor) > hi or any(map(int.__gt__, floor, ceiling)):
        return None
    excess = max(0, sum(ceiling) - hi)
    part1, part2 = [], []
    for cls, least, most in zip(classes, floor, ceiling):
        take = max(least, most - excess)
        excess -= most - take
        part1 += cls[:take]
        part2 += cls[take:]
    return tuple(part1), tuple(part2)


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
    profile = instance.profile
    p = profile.index[instance.p]
    n = len(profile.ballots)
    lo, hi = n // 2, (n + 1) // 2
    classes = _top_classes(profile)
    score = list(map(len, classes))
    cases = 0

    def yes(parts):
        return Decision(YES, VoterPartition(parts), {"cases": cases})

    if len(classes) == 1:
        cases = 1
        return yes((tuple(range(hi)), tuple(range(hi, n))))

    others = [c for c in range(len(classes)) if c != p]
    # Every candidate but p holds at most kp - 1 ballots in V1, so below
    # kp0 no case of any condition fills V1 to lo.
    kp0 = 1 + bisect_left(range(1, score[p] + 1), lo,
                          key=lambda kp: kp + sum(min(score[d], kp - 1) for d in others))

    def pinned_rivals(rivals, tie):
        """Conditions 1 (``tie`` 0: one rival wins V2 alone) and 3 (``tie``
        1: two rivals tie in V2) pin p at kp top choices in V1 and each rival
        at kc in V2. p is unique in V1 once every score[r] - kc <= kp - 1, and
        the rivals win V2 once score[p] - kp <= kc - 1 + tie. Only the kp from
        kp0 on where some kc meets both are tried, but ``cases`` counts every
        (kp, kc), ``width`` kc per kp, up to the first success."""
        nonlocal cases
        counts = [score[r] for r in rivals]
        top, high = min(counts), max(counts)
        least = 1 - tie
        width = top + 1 - least
        for kp in range(max(kp0, score[p] + 1 - tie - top, high + 1 - top), score[p] + 1):
            for kc in range(max(least, score[p] - kp + 1 - tie, high - kp + 1), top + 1):
                pinned = {p: kp, **{r: score[r] - kc for r in rivals}}
                parts = _extend_to_equipartition(
                    classes, score, pinned, kp, kc - 1 + tie, lo, hi)
                if parts:
                    cases += (kp - 1) * width + kc - least + 1
                    return parts
        cases += score[p] * width
        return None

    # Condition 1: V2 has a unique winner c and p beats c in the final.
    for c in others:
        if final_round(instance, 1 << p | 1 << c) == 1 << p:
            parts = pinned_rivals((c,), 0)
            if parts:
                return yes(parts)

    # Condition 2: p is among the winners of V2.
    for kp in range(kp0, score[p] + 1):
        parts = _extend_to_equipartition(classes, score, {p: kp}, kp, score[p] - kp, lo, hi)
        if parts:
            cases += kp
            return yes(parts)
    cases += score[p]

    # Condition 3: V2 is tied between two candidates other than p. Once kp0 > score[p], no
    # pair visits a kp, and pair i < j of the M sorted rival scores adds score[p] * (r_i + 1).
    if kp0 > score[p]:
        rivals = sorted(score[c] for c in others)
        cases += score[p] * sum((r + 1) * (len(rivals) - 1 - i) for i, r in enumerate(rivals))
        return Decision(NO, stats={"cases": cases})
    for pair in combinations(others, 2):
        parts = pinned_rivals(pair, 1)
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
    k - 1 guesses form a multiset of the numbered guesses, taken in
    ``combinations_with_replacement`` order. The first multiset whose
    finalists make p the sole final winner and whose per-candidate
    top-choice counts can realize it is the answer. Realizability
    decomposes per candidate: pinned exact counts must not exceed the
    candidate's total, and the remainder must fit under the caps of the
    parts that do not pin it.

    The walk visits only multisets that can pass. Pinned counts only grow,
    so a prefix that pins more than a score is cut. The last guess is
    chosen per block of guesses sharing (win, members): its feasible
    counts form an interval, and one final round decides the block. The
    empty guess pins nothing, so its copies are placed in closed form, and
    a passing multiset holds at most n other guesses: the walk is bounded
    by n and m, never by k. ``cases`` is the number of multisets the plain
    enumeration would have examined, computed rather than counted, and
    left out when it exceeds ``CASES_LIMIT``.
    """
    _require(instance, Problem.CCPKV, VotingRule.PLURALITY, TieRule.TE)
    profile, k = instance.profile, instance.k
    p = profile.index[instance.p]
    n = len(profile.ballots)
    classes = _top_classes(profile)
    score = list(map(len, classes))
    m = len(classes)

    if m == 1:
        parts = (tuple(range(n)),) + ((),) * (k - 1)
        return Decision(YES, VoterPartition(parts), {"cases": 1})

    # A guess per part, (win, member positions, s): a unique winner (c,) or
    # an eliminating tied pair (d, e) at count s. The empty part is
    # representable by any pair at count 0; keep a single copy, the first
    # pair's. The guesses are numbered in enumeration order, the n wins
    # first, so the empty guess is number n. Those sharing (win, members)
    # form a block (first, last, win, members, s0): guess i of it is
    # (win, members, s0 + i - first).
    blocks, guesses, empty = [], 0, n
    pairs = enumerate(combinations(range(m), 2))
    for win, members, s0 in [(True, (c,), 1) for c in range(m)] + [
            (False, pair, 0 if i == 0 else 1) for i, pair in pairs]:
        top = min(score[h] for h in members)
        if top >= s0:
            blocks.append((guesses, guesses + top - s0, win, members, s0))
            guesses += top - s0 + 1

    def build_parts(specs) -> tuple[tuple[int, ...], ...]:
        kparts: list[list[int]] = [[] for _ in specs]
        for h, cls in enumerate(classes):
            r = score[h] - sum(s for _, members, s in specs if h in members)
            pos = 0
            for part, (win, members, s) in zip(kparts, specs):
                if h in members:
                    take = s
                else:
                    take = min(r, s - 1 if win else s)
                    r -= take
                part.extend(cls[pos:pos + take])
                pos += take
        return tuple(map(tuple, kparts))

    # Candidates by position. A walk state is (slack, need, finalists):
    # slack[h] is h's top-choice count not yet pinned, need[h] that count
    # less the caps of the guessed parts that do not pin h, finalists a
    # bitmask. A complete guess passes when no need is positive and the
    # final round leaves p alone. A run of the walk is (number, copies, guess).
    pbit = 1 << p

    def passes(state) -> bool:
        _, need, finalists = state
        return max(need) <= 0 and final_round(instance, finalists) == pbit

    def add(state, guess, copies):
        slack, need, finalists = state
        win, members, s = guess
        slack = slack[:]
        for h in members:
            slack[h] -= s * copies
        cap = (s - 1 if win else s) * copies
        need = [x - (s * copies if h in members else cap) for h, x in enumerate(need)]
        if win:
            finalists |= 1 << members[0]
        return slack, need, finalists

    def last_guess(state, lo):
        """The run of the first guess from number lo on that ends the multiset.
        Slack alone bounds a count: a block ends at its members' least score."""
        slack, need, finalists = state
        top = max(need)
        alone = need.count(top) == 1
        elim_final = None
        for first, last, win, members, s0 in blocks:
            if last < lo:
                continue
            lower = s0 + max(first, lo) - first
            if win:
                c, = members
                # A win at count s lowers c's slack and need by s and every
                # other need by s - 1: c needs s >= need[c], any other h
                # s >= need[h] + 1.
                lower = max(lower, need[c] if alone and need[c] == top else top + 1)
                if lower <= slack[c] and final_round(instance, finalists | 1 << c) == pbit:
                    return first + lower - s0, 1, (win, members, lower)
            else:
                # A pair at count s lowers both members' slack and every
                # need by s: each h needs s >= need[h].
                lower = max(lower, top)
                if lower <= min(map(slack.__getitem__, members)):
                    if elim_final is None:
                        elim_final = final_round(instance, finalists) == pbit
                    if elim_final:
                        return first + lower - s0, 1, (win, members, lower)
        return None

    def extensions(state, lo, left):
        """(run, state, lo, left) for each first run of a completion of
        ``left`` guesses from number ``lo`` on, in the enumeration's order;
        left 0 marks a passing multiset."""
        if left == 1:
            run = last_guess(state, lo)
            if run:
                yield run, state, None, 0
            return
        slack = state[0]
        for first, last, win, members, s0 in blocks:
            if last < lo:
                continue
            index = max(first, lo)
            if index == empty:
                # The empty guess's copies, then u >= 0 pair guesses, each
                # pinning at least two ballots; fewer pairs come first.
                guess = (win, members, 0)
                if passes(state):
                    yield (empty, left, guess), state, None, 0
                for u in range(1, min(left - 1, sum(slack) // 2) + 1):
                    yield (empty, left - u, guess), state, empty + 1, u
                index += 1
            if not win and 2 * left > sum(slack):  # only pair guesses are left
                return
            for index in range(index, last + 1):
                s = s0 + index - first
                most = min(left, *(slack[h] // s for h in members))
                if not most:
                    break
                guess = (win, members, s)
                for copies in range(most, 0, -1):
                    after = add(state, guess, copies)
                    if copies < left:
                        yield (index, copies, guess), after, index + 1, left - copies
                    elif passes(after):
                        yield (index, copies, guess), after, None, 0

    def first_passing(state, size):
        """The first passing multiset of ``size`` guesses, as runs. The stack
        holds each run of the prefix with the walk on from it, and is
        explicit: a multiset can hold more runs than the recursion limit."""
        stack = [(None, extensions(state, 0, size))]
        while stack:
            for run, after, lo, left in stack[-1][1]:
                if left == 0:
                    return [prefix for prefix, _ in stack[1:]] + [run]
                stack.append((run, extensions(after, lo, left)))
                break
            else:
                stack.pop()
        return None

    per_s1 = _multisets(guesses, k - 1, CASES_LIMIT)
    for s1 in range(1, score[p] + 1):
        own = (True, (p,), s1)
        runs = first_passing(add((score, score, 0), own, 1), k - 1)
        if runs is None:
            continue
        # The empty guess is the one at count 0; its copies are the blank parts.
        specs = [own] + [g for _, c, g in runs if g[2] for _ in range(c)]
        built = build_parts(specs)
        wins = sum(g[0] for g in specs)
        parts = built[:wins] + ((),) * (k - len(specs)) + built[wins:]
        cases = (s1 - 1) * per_s1 + _rank([r[:2] for r in runs], guesses, k - 1, CASES_LIMIT) + 1
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
    p = instance.p
    witness = CandidatePartition({p}, instance.profile.index.keys() - {p})
    if verify_witness(instance, witness):
        return Decision(YES, witness, {"cases": 1})
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
