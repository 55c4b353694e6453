"""NP-hardness reduction constructors and McGarvey profile synthesis.

Three reductions are provided: Cubic Vertex Cover to weakCondorcet
runoff-equipartition of candidates (TP), Exact Cover by 3-Sets to plurality
partition of voter groups (TE), and approval-CCPV-TE to CCPV-TP under
system E. Small brute-force solvers for the source problems support
end-to-end yes/no preservation checks, and a witness pull-back recovers a
vertex cover from an accepted candidate partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .elections import Ballot, Candidate, Profile, VotingRule
from .two_stage import CandidatePartition, ControlInstance, Problem, TieRule, verify_witness

BRUTE_FORCE_LIMIT = 20

VERTEX_PREFIX = "v:"
EDGE_PREFIX = "e:"
DUMMY_PREFIX = "d:"


@dataclass(frozen=True)
class MajoritySpec:
    """A target pairwise-majority relation: listed pairs are strict wins
    (winner first), every unlisted pair is a tie."""

    candidates: tuple[str, ...]
    beats: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "beats", tuple(tuple(p) for p in self.beats))
        known = set(self.candidates)
        if len(known) != len(self.candidates):
            raise ValueError("duplicate candidates")
        seen = set()
        for a, b in self.beats:
            if a == b or a not in known or b not in known:
                raise ValueError(f"bad pair ({a}, {b})")
            if (a, b) in seen or (b, a) in seen:
                raise ValueError(f"pair ({a}, {b}) specified twice")
            seen.add((a, b))


@dataclass(frozen=True)
class CubicGraphVC:
    """A 3-regular graph with a cover-size target k <= ||V||."""

    vertices: tuple[str, ...]
    edges: tuple[frozenset[str], ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "edges", tuple(frozenset(e) for e in self.edges)
        )
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertices")
        if any("|" in v for v in vs):  # edge ids join their endpoints with "|"
            raise ValueError("vertex ids may not contain '|'")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")
        degree = {v: 0 for v in self.vertices}
        for e in self.edges:
            if len(e) != 2 or not e <= vs:
                raise ValueError(f"bad edge {sorted(e)}")
            for v in e:
                degree[v] += 1
        if any(d != 3 for d in degree.values()):
            raise ValueError("graph is not cubic (every vertex needs degree 3)")
        if not 1 <= self.k <= len(self.vertices):
            raise ValueError("k must satisfy 1 <= k <= ||V||")


@dataclass(frozen=True)
class X3CInstance:
    """Exact Cover by 3-Sets: base of size 3m (m > 1) and n > m+1 triples."""

    base: tuple[str, ...]
    triples: tuple[frozenset[str], ...]

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(
            self, "triples", tuple(frozenset(t) for t in self.triples)
        )
        elems = set(self.base)
        if len(elems) != len(self.base):
            raise ValueError("duplicate base elements")
        if len(self.base) % 3 != 0 or len(self.base) < 6:
            raise ValueError("base size must be 3m with m > 1")
        m = len(self.base) // 3
        if len(self.triples) <= m + 1:
            raise ValueError("need more than m+1 triples")
        for t in self.triples:
            if len(t) != 3 or not t <= elems:
                raise ValueError(f"bad triple {sorted(t)}")

    @property
    def m(self) -> int:
        return len(self.base) // 3

    @property
    def n(self) -> int:
        return len(self.triples)


def mcgarvey_profile(spec: MajoritySpec) -> Profile:
    """A linear-order profile realizing the spec's majority relation.

    Each strict pair (a, b) contributes two ballots: a > b > rest in the
    spec's candidate order, and the reversed rest above a > b. The pair
    gains margin exactly +2 and every other pair's margin is untouched, so
    strict pairs end at +2 and ties at 0.
    """
    cands = tuple(Candidate(cid) for cid in spec.candidates)
    if spec.beats and len(spec.candidates) < 3:
        raise ValueError("strict pairs need at least three candidates")
    ballots = []
    for a, b in spec.beats:
        rest = tuple(c for c in spec.candidates if c not in (a, b))
        ballots.append(Ballot(order=(a, b) + rest))
        ballots.append(Ballot(order=rest[::-1] + (a, b)))
    return Profile(cands, tuple(ballots))


def edge_id(u: str, v: str) -> str:
    return f"{EDGE_PREFIX}{u}|{v}"


def cubic_vc_to_weakcondorcet_ccrepc_tp(g: CubicGraphVC) -> ControlInstance:
    """Reduce Cubic Vertex Cover to weakCondorcet-CCREPC-TP.

    Candidates are p, n/2 + 2k - 1 dummies, the vertices, and the edges
    (3n/2 of them, a cubic graph's edge count), totalling 3n + 2k. The
    majority relation makes every edge defeat p, p defeat every vertex and
    dummy, and each edge lose to its two endpoints; all else ties. The
    graph has a size-k cover iff p can become the sole winner of some
    candidate equipartition, with witness ({p} u D u (V - V'), E u V').
    """
    n = len(g.vertices)
    dummies = tuple(f"{DUMMY_PREFIX}{i}" for i in range(n // 2 + 2 * g.k - 1))
    vertex_ids = tuple(VERTEX_PREFIX + v for v in g.vertices)
    order = {v: i for i, v in enumerate(g.vertices)}
    edge_ids = []
    edge_pairs = []
    for e in g.edges:
        u, v = sorted(e, key=order.get)
        edge_ids.append(edge_id(u, v))
        edge_pairs.append((VERTEX_PREFIX + u, VERTEX_PREFIX + v))
    candidates = ("p",) + dummies + vertex_ids + tuple(edge_ids)

    beats = []
    for eid in edge_ids:
        beats.append((eid, "p"))
    for cid in vertex_ids + dummies:
        beats.append(("p", cid))
    for eid, (u, v) in zip(edge_ids, edge_pairs):
        beats.append((u, eid))
        beats.append((v, eid))

    profile = mcgarvey_profile(MajoritySpec(candidates, tuple(beats)))
    return ControlInstance(
        problem=Problem.CCREPC,
        rule=VotingRule.WEAK_CONDORCET,
        profile=profile,
        p="p",
        tie=TieRule.TP,
    )


def vc_forward_witness(g: CubicGraphVC, cover: frozenset[str]) -> CandidatePartition:
    """The candidate partition the reduction proof builds from a cover."""
    instance = cubic_vc_to_weakcondorcet_ccrepc_tp(g)
    ids = instance.profile.candidate_ids
    c2 = frozenset(
        cid for cid in ids
        if cid.startswith(EDGE_PREFIX)
        or (cid.startswith(VERTEX_PREFIX) and cid[len(VERTEX_PREFIX):] in cover)
    )
    return CandidatePartition(frozenset(ids) - c2, c2)


def pull_back_vc_witness(instance: ControlInstance, w: CandidatePartition) -> frozenset[str]:
    """Recover a vertex cover from an accepted equipartition witness.

    The side not containing p intersected with the vertex candidates is a
    cover of size at most k. Raises if the witness does not verify or the
    recovered set fails the cover property.
    """
    if not verify_witness(instance, w):
        raise ValueError("witness does not verify on this instance")
    side = w.c2 if instance.p in w.c1 else w.c1
    cover = frozenset(
        cid[len(VERTEX_PREFIX):] for cid in side if cid.startswith(VERTEX_PREFIX)
    )
    ids = instance.profile.candidate_ids
    n_vertices = sum(1 for cid in ids if cid.startswith(VERTEX_PREFIX))
    n_dummies = sum(1 for cid in ids if cid.startswith(DUMMY_PREFIX))
    k = (n_dummies + 1 - n_vertices // 2) // 2
    if len(cover) > k:
        raise ValueError("recovered set exceeds the cover budget")
    for cid in ids:
        if cid.startswith(EDGE_PREFIX):
            u, v = cid[len(EDGE_PREFIX):].split("|")
            if u not in cover and v not in cover:
                raise ValueError(f"recovered set misses edge {u}-{v}")
    return cover


def x3c_to_plurality_ccpvg_te(x: X3CInstance) -> ControlInstance:
    """Reduce X3C to Plurality-CCPVG-TE.

    Candidates are p, c, d, e plus the base elements; the n+3 voter groups
    are one eight-ballot group per triple, one mixed group, and two blocker
    groups for c and d.  The d-blocker carries m more ballots than the
    c-blocker, while each triple group contributes one ballot to c, so the
    c/d tie that silences the second subelection occurs exactly when m
    triple groups side with the blockers; p then beats every base candidate
    in the first subelection exactly when those m triples cover the base
    set.  Mid-ballot candidate blocks are resolved lexicographically by id.
    """
    m, n = x.m, x.n
    reserved = {"p", "c", "d", "e"}
    if reserved & set(x.base):
        raise ValueError("base elements may not be named p, c, d, or e")
    candidates = tuple(Candidate(cid) for cid in ("p", "c", "d", "e") + x.base)
    all_ids = [c.id for c in candidates]

    def vote(top: str, last: str | None = None) -> Ballot:
        rest = [cid for cid in all_ids if cid != top and cid != last]
        tail = (last,) if last else ()
        return Ballot(order=(top,) + tuple(sorted(rest)) + tail)

    ballots: list[Ballot] = []
    labels: list[str] = []

    def add_group(label: str, votes: list[Ballot]) -> None:
        ballots.extend(votes)
        labels.extend([label] * len(votes))

    for i, triple in enumerate(x.triples, start=1):
        members = sorted(triple)
        add_group(f"G{i}", [
            vote("p"),
            vote("p"),
            vote(members[0], last="p"),
            vote(members[1], last="p"),
            vote(members[2], last="p"),
            vote("e", last="p"),
            vote("e", last="p"),
            vote("c", last="p"),
        ])

    occurrences = {b: sum(1 for t in x.triples if b in t) for b in x.base}
    mixed: list[Ballot] = []
    for b in x.base:
        mixed.extend(vote(b, last="p") for _ in range(2 * n - occurrences[b]))
    mixed.extend(vote("p") for _ in range(2 * m))
    mixed.extend(vote("e", last="p") for _ in range(m))
    mixed.append(vote("c", last="p"))
    add_group("GB", mixed)

    add_group("Gc", [vote("c", last="p") for _ in range(2 * (n + m) + 1)])
    add_group("Gd", [vote("d", last="p") for _ in range(2 * (n + m) + 1 + m)])

    profile = Profile(candidates, tuple(ballots))
    return ControlInstance(
        problem=Problem.CCPVG,
        rule=VotingRule.PLURALITY,
        profile=profile,
        p="p",
        tie=TieRule.TE,
        labels=labels,
    )


def approval_ccpv_te_to_e_ccpv_tp(src: ControlInstance) -> ControlInstance:
    """Reduce approval-CCPV-TE to system-E CCPV-TP.

    Adds the four special candidates (approved by nobody) and pads the
    electorate with two empty-approval voters when ||V|| is even, one when
    odd, so that a working partition can always realize subelection sizes
    with residues {0,2} or {1,3} mod 4.
    """
    if (src.problem, src.rule, src.tie) != (Problem.CCPV, VotingRule.APPROVAL, TieRule.TE):
        raise ValueError("source must be an approval-CCPV-TE instance")
    if any(c.special_index is not None for c in src.profile.candidates):
        raise ValueError("source already contains special candidates")
    taken = set(src.profile.candidate_ids)
    special = tuple(Candidate(str(i), special_index=i) for i in range(4))
    if taken & {c.id for c in special}:
        raise ValueError("source candidate ids clash with the special candidates")

    candidates = src.profile.candidates + special
    pad = 2 if len(src.profile.ballots) % 2 == 0 else 1
    ballots = tuple(Ballot(approvals=b.approvals) for b in src.profile.ballots)
    ballots += tuple(Ballot(approvals=frozenset()) for _ in range(pad))
    profile = Profile(candidates, ballots)
    return ControlInstance(
        problem=Problem.CCPV,
        rule=VotingRule.SYSTEM_E,
        profile=profile,
        p=src.p,
        tie=TieRule.TP,
    )


def solve_vc_bruteforce(g: CubicGraphVC, k: int | None = None) -> bool:
    """Exact vertex-cover decision by subset enumeration (small graphs)."""
    target = g.k if k is None else k
    n = len(g.vertices)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} vertices")
    size = min(target, n)
    for subset in combinations(g.vertices, size):
        chosen = set(subset)
        if all(e & chosen for e in g.edges):
            return True
    return False


def solve_x3c_bruteforce(x: X3CInstance) -> bool:
    """Exact X3C decision by enumerating m-subsets of the triples."""
    if x.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} triples")
    universe = frozenset(x.base)
    for chosen in combinations(x.triples, x.m):
        union = frozenset().union(*chosen)
        if union == universe:
            return True
    return False
