"""Polynomial-time decision procedures for the tractable control problems.

Each solver validates that the instance matches its (problem, rule, tie)
combination, returns a Decision carrying a verifiable witness on yes, and
reports the number of cases it examined. Iteration order is deterministic:
candidates in instance order, scores ascending, so the returned witness is
reproducible.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

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


def solve_plurality_ccpkv_te(instance: ControlInstance) -> Decision:
    """Plurality control by k-partition of voters, ties-eliminate.

    Enumerates, per part, either a unique winner with its top-choice count
    or an eliminating tied pair with its count (count 0 covering the empty
    part), then checks that the guessed finalists make p the sole final
    winner and that per-candidate top-choice counts can realize the guess.
    Realizability decomposes per candidate: pinned exact counts must not
    exceed the candidate's total, and the remainder must fit under the sum
    of the other parts' caps.
    """
    _require(instance, Problem.CCPKV, VotingRule.PLURALITY, TieRule.TE)
    profile, p, k = instance.profile, instance.p, instance.k
    bit = profile.bit
    ids = profile.candidate_ids
    n = len(profile.ballots)
    classes = _top_classes(profile)
    score = {cid: len(cls) for cid, cls in classes.items()}
    cases = 0

    if len(ids) == 1:
        parts = (tuple(range(n)),) + ((),) * (k - 1)
        return Decision(YES, VoterPartition(parts), {"cases": 1})

    # A guess per part: ("win", (c,), s) or ("elim", (d, e), s). The empty
    # part is representable by any pair at count 0; keep a single copy.
    options: list[tuple[str, tuple[str, ...], int]] = []
    for c in ids:
        for s in range(1, score[c] + 1):
            options.append(("win", (c,), s))
    empty_seen = False
    for d, e in combinations(ids, 2):
        for s in range(0, min(score[d], score[e]) + 1):
            if s == 0:
                if empty_seen:
                    continue
                empty_seen = True
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

    for s1 in range(1, score[p] + 1):
        head = ("win", (p,), s1)
        for combo in combinations_with_replacement(options, k - 1):
            cases += 1
            specs = (head,) + combo
            finalists = {m for kind, members, _ in specs if kind == "win" for m in members}
            if final_round(instance, sum(map(bit.__getitem__, finalists))) != bit[p]:
                continue
            base_cap = sum((s - 1) if kind == "win" else s for kind, _, s in specs)
            exact = {cid: 0 for cid in ids}
            capadj = {cid: 0 for cid in ids}
            feasible = True
            for kind, members, s in specs:
                part_cap = s - 1 if kind == "win" else s
                for m in members:
                    exact[m] += s
                    capadj[m] -= part_cap
            for h in ids:
                r = score[h] - exact[h]
                if r < 0 or r > base_cap + capadj[h]:
                    feasible = False
                    break
            if not feasible:
                continue
            return Decision(YES, VoterPartition(build_parts(specs)),
                            {"cases": cases})

    return Decision(NO, stats={"cases": cases})


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
