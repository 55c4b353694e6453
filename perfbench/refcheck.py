"""Reference checker written from the definitions, independent of electctl.

Nothing here imports electctl. Elections are plain data: a tuple of
candidate ids, a tuple of ballots (a tuple for a linear order, a frozenset
for an approval ballot) and a mapping from the four system-E special
candidates to their indices. Everything is computed the slow, obvious way:
restricted elections are built ballot by ballot, Condorcet winners are
found by counting voters per pair, and control problems are decided by
trying every witness.

An instance is a ``RefInstance``; a witness is the JSON witness body of the
electctl/1 format, a dict with ``type`` voter_partition / candidate_partition
/ group_selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb, factorial

PLURALITY = "plurality"
APPROVAL = "approval"
CONDORCET = "condorcet"
WEAK_CONDORCET = "weakCondorcet"
SYSTEM_E = "systemE"


@dataclass(frozen=True)
class RefInstance:
    problem: str                      # CCPV, CCEPV, CCPkV, CCRPC, CCREPC, CCPVG
    rule: str
    tie: str                          # TE or TP
    candidates: tuple
    ballots: tuple
    p: str
    specials: dict = field(default_factory=dict)
    k: int | None = None
    groups: tuple = ()                # ((label, (ballot index, ...)), ...)


# ---------------------------------------------------------------- one stage

def _top(ballot, keep):
    for c in ballot:
        if c in keep:
            return c
    return None


def _argmax(scores):
    best = max(scores.values())
    return frozenset(c for c, s in scores.items() if s == best)


def _approval_winners(cands, ballots):
    scores = {c: 0 for c in cands}
    for b in ballots:
        for c in b:
            if c in scores:
                scores[c] += 1
    return _argmax(scores)


def _prefers(ballot, a, b):
    for c in ballot:
        if c == a:
            return True
        if c == b:
            return False
    raise ValueError(f"ballot {ballot} ranks neither {a} nor {b}")


def _beats_all(a, cands, ballots, weak):
    """a gets more than half (weak: at least half) of the votes against every rival."""
    n = len(ballots)
    for b in cands:
        if b == a:
            continue
        pro = sum(1 for v in ballots if _prefers(v, a, b))
        if (2 * pro < n) if weak else (2 * pro <= n):
            return False
    return True


def winners(rule, cands, ballots, specials=None):
    """Winner set of a one-stage election on the candidates ``cands``.

    ``ballots`` may mention other candidates too: each ballot is read as
    restricted to ``cands``.
    """
    cands = tuple(cands)
    keep = frozenset(cands)
    if not cands:
        return frozenset()
    if rule == PLURALITY:
        scores = {c: 0 for c in cands}
        for b in ballots:
            scores[_top(b, keep)] += 1
        return _argmax(scores)
    if rule == APPROVAL:
        return _approval_winners(cands, ballots)
    if rule in (CONDORCET, WEAK_CONDORCET):
        weak = rule == WEAK_CONDORCET
        return frozenset(a for a in cands if _beats_all(a, cands, ballots, weak))
    if rule == SYSTEM_E:
        return _system_e(cands, ballots, specials or {})
    raise ValueError(f"unknown rule {rule!r}")


def _system_e(cands, ballots, specials):
    """System E: with at most four candidates, the approval winners among the
    non-special candidates if exactly the specials {0,2} or {1,3} take part,
    else nobody; with more than four candidates and all four specials, the
    special with index ||V|| mod 4 plus the non-special approval winner if
    that winner is unique, else nobody."""
    present = {specials[c]: c for c in cands if c in specials}
    plain = [c for c in cands if c not in specials]
    if len(cands) <= 4:
        if set(present) in ({0, 2}, {1, 3}) and plain:
            return _approval_winners(plain, ballots)
        return frozenset()
    if set(present) != {0, 1, 2, 3}:
        return frozenset()
    out = {present[len(ballots) % 4]}
    if plain:
        best = _approval_winners(plain, ballots)
        if len(best) == 1:
            out |= best
    return frozenset(out)


# ---------------------------------------------------------------- two stages

def _promote(tie, won):
    if tie == "TE":
        return won if len(won) == 1 else frozenset()
    return won


def two_stage_voters(inst, parts):
    """Final winners when the voters are split into ``parts`` (index lists)."""
    finalists = frozenset()
    for part in parts:
        sub = [inst.ballots[i] for i in part]
        finalists |= _promote(inst.tie, winners(inst.rule, inst.candidates, sub,
                                                inst.specials))
    final = [c for c in inst.candidates if c in finalists]
    return winners(inst.rule, final, inst.ballots, inst.specials)


def two_stage_candidates(inst, c1, c2):
    """Final winners of the runoff partition (C1, C2) of the candidates."""
    finalists = frozenset()
    for side in (c1, c2):
        side = [c for c in inst.candidates if c in side]
        if side:
            finalists |= _promote(inst.tie, winners(inst.rule, side, inst.ballots,
                                                    inst.specials))
    final = [c for c in inst.candidates if c in finalists]
    return winners(inst.rule, final, inst.ballots, inst.specials)


def _is_partition(parts, n):
    seen = [i for part in parts for i in part]
    return sorted(seen) == list(range(n))


def accepts(inst, witness):
    """True iff the witness is a legal action for the problem and makes p the
    one and only final winner."""
    n = len(inst.ballots)
    kind = witness.get("type")
    goal = frozenset({inst.p})
    if inst.problem in ("CCPV", "CCEPV", "CCPkV"):
        if kind != "voter_partition":
            return False
        parts = [list(part) for part in witness["parts"]]
        want = inst.k if inst.problem == "CCPkV" else 2
        if len(parts) != want or not _is_partition(parts, n):
            return False
        if inst.problem == "CCEPV" and abs(len(parts[0]) - len(parts[1])) > 1:
            return False
        return two_stage_voters(inst, parts) == goal
    if inst.problem in ("CCRPC", "CCREPC"):
        if kind != "candidate_partition":
            return False
        c1, c2 = set(witness["c1"]), set(witness["c2"])
        if c1 & c2 or c1 | c2 != set(inst.candidates):
            return False
        if inst.problem == "CCREPC" and abs(len(c1) - len(c2)) > 1:
            return False
        return two_stage_candidates(inst, c1, c2) == goal
    if inst.problem == "CCPVG":
        if kind != "group_selection":
            return False
        chosen = set(witness["groups"])
        labels = {label for label, _ in inst.groups}
        if not chosen <= labels:
            return False
        second = [i for label, idx in inst.groups if label in chosen for i in idx]
        first = [i for label, idx in inst.groups if label not in chosen for i in idx]
        return two_stage_voters(inst, [first, second]) == goal
    raise ValueError(f"no reference semantics for {inst.problem}")


def witnesses(inst):
    """Every witness of the instance, ordered and with repetitions.

    Each unordered split is produced more than once; this is the naive
    enumeration, not the oracle's canonical one.
    """
    n = len(inst.ballots)
    if inst.problem in ("CCPV", "CCEPV"):
        for mask in range(1 << n):
            first = [i for i in range(n) if mask >> i & 1]
            second = [i for i in range(n) if not mask >> i & 1]
            yield {"type": "voter_partition", "parts": [first, second]}
    elif inst.problem == "CCPkV":
        for labels in product(range(inst.k), repeat=n):
            parts = [[i for i in range(n) if labels[i] == j] for j in range(inst.k)]
            yield {"type": "voter_partition", "parts": parts}
    elif inst.problem in ("CCRPC", "CCREPC"):
        cands = inst.candidates
        for mask in range(1 << len(cands)):
            c1 = [c for i, c in enumerate(cands) if mask >> i & 1]
            c2 = [c for i, c in enumerate(cands) if not mask >> i & 1]
            yield {"type": "candidate_partition", "c1": c1, "c2": c2}
    elif inst.problem == "CCPVG":
        labels = [label for label, _ in inst.groups]
        for r in range(len(labels) + 1):
            for chosen in combinations(labels, r):
                yield {"type": "group_selection", "groups": list(chosen)}
    else:
        raise ValueError(f"no reference enumeration for {inst.problem}")


def brute_force(inst):
    """Decide the instance by trying every witness: "yes" or "no"."""
    return "yes" if any(accepts(inst, w) for w in witnesses(inst)) else "no"


# ---------------------------------------------------------------- counting

def stirling2(n, k):
    """Partitions of an n-set into exactly k nonempty blocks."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


def count_bipartitions(n):
    """Unordered splits of an n-set into two parts, one of them maybe empty."""
    return 1 if n == 0 else 2 ** (n - 1)


def count_equipartitions(n):
    """Unordered splits of an n-set into parts whose sizes differ by at most one."""
    if n == 0:
        return 1
    if n % 2 == 0:
        return comb(n, n // 2) // 2
    return comb(n, (n + 1) // 2)


def count_k_partitions(n, k):
    """Splits of an n-set into k unlabelled parts, empty parts allowed."""
    if n == 0:
        return 1
    return sum(stirling2(n, j) for j in range(1, k + 1))


def count_witnesses(inst):
    """The number of distinct witnesses an exhaustive search must consider."""
    n = len(inst.ballots)
    counts = {
        "CCPV": lambda: count_bipartitions(n),
        "CCEPV": lambda: count_equipartitions(n),
        "CCPkV": lambda: count_k_partitions(n, inst.k),
        "CCRPC": lambda: count_bipartitions(len(inst.candidates)),
        "CCREPC": lambda: count_equipartitions(len(inst.candidates)),
        "CCPVG": lambda: count_bipartitions(len(inst.groups)),
    }
    return counts[inst.problem]()


# ---------------------------------------------------------------- sources

def vertex_cover_exists(vertices, edges, k):
    """Some set of at most k vertices touches every edge."""
    for size in range(min(k, len(vertices)) + 1):
        for chosen in combinations(vertices, size):
            s = set(chosen)
            if all(u in s or v in s for u, v in edges):
                return True
    return False


def exact_cover_exists(base, triples):
    """Some subfamily of the triples covers every base element exactly once."""
    m = len(base) // 3
    for chosen in combinations(triples, m):
        covered = [x for t in chosen for x in t]
        if len(covered) == len(set(covered)) and set(covered) == set(base):
            return True
    return False


def is_cover(cover, edges, k):
    return len(cover) <= k and all(u in cover or v in cover for u, v in edges)


# ---------------------------------------------------------------- "no" proofs

def top_counts(inst):
    counts = {c: 0 for c in inst.candidates}
    for b in inst.ballots:
        counts[b[0]] += 1
    return counts


def no_by_count(inst):
    """The name of a counting argument that proves the instance is a "no",
    or None when none of them applies.

    * ``p-minority``: plurality CCEPV-TE where p tops t ballots and
      t*m <= floor(n/2). Every half has at least floor(n/2) voters and at
      most t of them rank p first, so the other m-1 candidates share at
      least (m-1)*t first places there and one of them ties or beats p: p is
      never the unique winner of a half and never reaches the final.
    * ``rival-majority``: plurality CCPkV-TE or weakCondorcet CCRPC-TP where
      some c != p tops more than half of all ballots. Under plurality, some
      part gives c more than half of its first places, so c is a finalist
      and keeps its majority in the final. Under weakCondorcet, c beats every
      rival head to head, wins every subelection it is in, and wins the
      final.
    * ``e-residues``: system-E CCEPV-TP with all four specials and more than
      four candidates. Each half promotes the special ||Vi|| mod 4 and at
      most one other candidate, so the final has at most four candidates and
      its specials are two equal or adjacent residues, never {0,2} or {1,3}:
      the final has no winner.
    """
    n, m = len(inst.ballots), len(inst.candidates)
    if (inst.problem, inst.rule, inst.tie) == ("CCEPV", PLURALITY, "TE"):
        if top_counts(inst)[inst.p] * m <= n // 2:
            return "p-minority"
    if (inst.problem, inst.rule, inst.tie) in (("CCPkV", PLURALITY, "TE"),
                                              ("CCRPC", WEAK_CONDORCET, "TP")):
        counts = top_counts(inst)
        if any(2 * s > n for c, s in counts.items() if c != inst.p):
            return "rival-majority"
    if (inst.problem, inst.rule, inst.tie) == ("CCEPV", SYSTEM_E, "TP"):
        if sorted(inst.specials.values()) == [0, 1, 2, 3] and m > 4:
            return "e-residues"
    return None
