"""The benchmark's three workloads: seeded inputs, timed operations, checks.

Each workload is built by ``build(name, api, seed, out_dir)`` into a
``Workload``: a list of operations, each of which makes the program calls
for one input and times them, and a ``check`` that compares the outputs of
one round with the reference checker in ``refcheck``. ``api`` is the
namespace returned by ``load_electctl``; operations look program functions
up through it at call time, so the tracer can swap in wrapped versions.

Instance mixes are fixed per workload (yes/no quotas, sizes per slot) so
that the cost of a round does not depend on the seed; the seed only picks
which instances fill each slot.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import refcheck
from refcheck import RefInstance

MODULES = ("elections", "two_stage", "oracle", "solvers", "reductions",
           "instance_io", "generate", "cli")


def load_electctl():
    """Import electctl afresh and return its modules as one namespace."""
    for name in [m for m in sys.modules if m == "electctl" or m.startswith("electctl.")]:
        del sys.modules[name]
    importlib.import_module("electctl")
    return SimpleNamespace(**{m: importlib.import_module(f"electctl.{m}") for m in MODULES})


@dataclass
class Op:
    """One input of a workload. ``run()`` returns (output, seconds in program calls).

    An output holding the key ``"error"`` is a failed operation.
    ``instance`` is False for inputs that are not control instances (the
    malformed documents); they are counted but not timed into the metrics.
    """

    label: str
    run: Callable[[], tuple[dict, float]]
    instance: bool = True


@dataclass
class Workload:
    ops: list[Op]
    check: Callable[[list[dict]], list[str]]


# ------------------------------------------------------------------ helpers

def plain_instance(inst) -> RefInstance:
    """Read an electctl ControlInstance into the reference checker's plain form."""
    prof = inst.profile
    return RefInstance(
        problem=inst.problem.value,
        rule=inst.rule.value,
        tie=inst.tie.value if inst.tie is not None else None,
        candidates=tuple(c.id for c in prof.candidates),
        ballots=tuple(b.order if b.order is not None else b.approvals
                      for b in prof.ballots),
        p=inst.p,
        specials={c.id: c.special_index for c in prof.candidates
                  if c.special_index is not None},
        k=inst.k,
        groups=tuple(inst.groups or ()),
    )


def witness_body(w) -> dict | None:
    """The electctl/1 witness body of an electctl witness object."""
    if w is None:
        return None
    if hasattr(w, "parts"):
        return {"type": "voter_partition", "parts": [list(p) for p in w.parts]}
    if hasattr(w, "c1"):
        return {"type": "candidate_partition", "c1": sorted(w.c1), "c2": sorted(w.c2)}
    return {"type": "group_selection", "groups": sorted(w.labels)}


def decision_record(d) -> dict:
    return {"answer": d.answer, "witness": witness_body(d.witness),
            "cases": d.stats.get("cases")}


def call_cli(api, argv) -> tuple[int | None, str, str, float, str | None]:
    """Run ``electctl.cli.main(argv)`` in process with captured output.

    Returns (exit code, stdout, stderr, seconds, error). An exception that
    escapes ``main`` is what the installed script would turn into a
    traceback and exit 1; it is reported as an error.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = api.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a result to count, not to stop on
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds, error


def _problems_of(label, problems):
    return [f"{label}: {p}" for p in problems]


def fill_quota(quota, draw, limit=100_000):
    """Call ``draw()`` for (answer, item) pairs until each answer has its quota
    of items; items whose answer is already full are dropped."""
    quota = dict(quota)
    items = []
    for _ in range(limit):
        if not any(quota.values()):
            return items
        answer, item = draw()
        if quota.get(answer, 0):
            quota[answer] -= 1
            items.append(item)
    raise RuntimeError(f"quota not filled after {limit} draws: {quota} left")


# ------------------------------------------------------------------ sweep

# family, candidates, voters, k, yes quota, no quota. Sizes make a "no"
# walk a few hundred witnesses; "yes" is usually found at the first one.
# About a fifth of the "yes" instances need more witnesses; the quotas keep
# p50 among the cheap ones and p90 among the "no" ones.
SWEEP_FAMILIES = (
    ("ccepv", 3, 12, None, 30, 6),
    ("ccpkv", 3, 7, 3, 30, 6),
    ("wcrpc", 10, 7, None, 30, 6),
    ("e-ccepv", 3, 12, None, 0, 10),
)


@dataclass
class SweepCase:
    family: str
    seed: int
    argv: list[str]
    instance: object


def _sweep_argv(family, ncand, nvot, k, seed):
    argv = ["sweep", family, "--candidates", str(ncand), "--voters", str(nvot),
            "--count", "1", "--seed", str(seed)]
    if k is not None:
        argv += ["--k", str(k)]
    return argv


def _run_sweep(api, case):
    rc, out, err, seconds, error = call_cli(api, case.argv)
    if error is not None:
        return {"error": error}, seconds
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        row.pop("ms_poly", None)
        row.pop("ms_oracle", None)
    return {"exit": rc, "rows": rows}, seconds


def build_sweep(api, seed, out_dir):
    """Quotas of yes and no instances per family, found by drawing seeds for
    ``sweep --count 1`` and classifying each instance with the poly solver."""
    rng = random.Random(f"sweep:{seed}")
    cases = []
    for family, ncand, nvot, k, want_yes, want_no in SWEEP_FAMILIES:
        def draw():
            s = rng.randrange(2 ** 31)
            inst = api.generate.family_instance(random.Random(s), family, ncand, nvot, k=k)
            case = SweepCase(family, s, _sweep_argv(family, ncand, nvot, k, s), inst)
            return api.solvers.solve_poly(inst).answer, case
        cases += fill_quota({"yes": want_yes, "no": want_no}, draw)
    rng.shuffle(cases)

    ops = [Op(f"{c.family}/{c.seed}", lambda c=c: _run_sweep(api, c)) for c in cases]

    def check(outputs):
        records = []
        for case, out in zip(cases, outputs):
            if "error" in out:
                continue
            records.append({
                "label": f"{case.family}/{case.seed}",
                "family": case.family,
                "plain": plain_instance(case.instance),
                "digest": api.instance_io.instance_digest(case.instance),
                "out": out,
                "poly": decision_record(api.solvers.solve_poly(case.instance)),
                "oracle": decision_record(api.oracle.oracle_solve(case.instance)),
            })
        return check_sweep(records)

    return Workload(ops, check)


def check_sweep(records):
    """Problems found in sweep outputs; an empty list means all correct.

    Each record holds the CLI output (exit code and CSV row) and the poly and
    oracle decisions for the same instance, taken after the timed phase.
    """
    problems = []
    for r in records:
        bad = []
        plain, out, poly, orc = r["plain"], r["out"], r["poly"], r["oracle"]
        if out["exit"] != 0 or len(out["rows"]) != 1:
            bad.append(f"sweep exit {out['exit']} with {len(out['rows'])} rows")
        else:
            row = out["rows"][0]
            if row["instance_digest"] != r["digest"]:
                bad.append("CLI swept another instance than the benchmark generated")
            if (row["answer_poly"], row["answer_oracle"]) != (poly["answer"], orc["answer"]):
                bad.append(f"CSV answers {row['answer_poly']}/{row['answer_oracle']} differ "
                           f"from the solvers' {poly['answer']}/{orc['answer']}")
            if row["agree"] != "1":
                bad.append(f"CSV agree={row['agree']!r}")
        if poly["answer"] != orc["answer"]:
            bad.append(f"poly says {poly['answer']}, oracle says {orc['answer']}")
        if r["family"] == "e-ccepv" and (poly["answer"], orc["answer"]) != ("no", "no"):
            bad.append("systemE-CCEPV-TP answered other than no")
        bad += _oracle_count_problems(plain, orc)
        for who, d in (("poly", poly), ("oracle", orc)):
            if d["answer"] == "yes" and not refcheck.accepts(plain, d["witness"] or {}):
                bad.append(f"{who} witness rejected by the reference evaluator")
        if "no" in (poly["answer"], orc["answer"]) and refcheck.brute_force(plain) != "no":
            bad.append("reference brute force finds a witness")
        problems += _problems_of(r["label"], bad)
    return problems


def _oracle_count_problems(plain, orc):
    total = refcheck.count_witnesses(plain)
    if orc["cases"] is None or orc["cases"] > total:
        return [f"oracle examined {orc['cases']} witnesses, closed form allows {total}"]
    if orc["answer"] == "no" and orc["cases"] != total:
        return [f"oracle said no after {orc['cases']} of {total} witnesses"]
    return []


# ------------------------------------------------------------------ hardness

K4 = (("u1", "u2", "u3", "u4"),
      (("u1", "u2"), ("u1", "u3"), ("u1", "u4"), ("u2", "u3"), ("u2", "u4"), ("u3", "u4")))
PRISM = (("a1", "a2", "a3", "b1", "b2", "b3"),
         (("a1", "a2"), ("a2", "a3"), ("a1", "a3"), ("b1", "b2"), ("b2", "b3"),
          ("b1", "b3"), ("a1", "b1"), ("a2", "b2"), ("a3", "b3")))
# graph, cover targets: below and at the cover number (K4: 3, prism: 4).
# The prism below its cover number (k=1: 92,378 witnesses, about 6 s) is
# left out: one call that long allows only three rounds a run, too few for
# steady figures on a noisy host.
VC_CASES = (("K4", K4, (1, 2, 3)), ("prism", PRISM, (4,)))
X3C_BASE = tuple(f"b{i}" for i in range(1, 7))
# The quotas place p50 among the 45 "no" instances with 4 triples (64 group
# splits each) and p90 among the 13 with 5 triples (128 splits), so that
# neither percentile sits between two groups of unequal cost.
X3C_RANDOM = ((4, 8, 30), (5, 0, 13))     # triples per instance, yes quota, no quota
X3C_NO_COVER = (4, 15)                    # triples per instance, count: all share b1
APPROVAL_SOURCES = ((6, 8, 8), (7, 7, 7))  # voters, yes quota, no quota
APPROVAL_CANDIDATES = ("p", "a", "b", "c")


@dataclass
class HardCase:
    kind: str                 # vc, x3c, approval-e
    label: str
    target: object            # the electctl instance the oracle decides
    source: dict              # the source problem, in plain data


def _run_oracle(api, case):
    start = perf_counter()
    try:
        d = api.oracle.oracle_solve(case.target)
    except Exception as exc:  # a crash is a result to count, not to stop on
        return {"error": f"{type(exc).__name__}: {exc}"}, perf_counter() - start
    seconds = perf_counter() - start
    return decision_record(d), seconds


def _relabel_graph(rng, name, graph):
    vertices, edges = graph
    names = [f"{name}{i}" for i in range(len(vertices))]
    rng.shuffle(names)
    rename = dict(zip(vertices, names))
    vs = [rename[v] for v in vertices]
    rng.shuffle(vs)
    es = [(rename[u], rename[v]) for u, v in edges]
    rng.shuffle(es)
    return tuple(vs), tuple(es)


def _random_triples(rng, base, n):
    seen = set()
    while len(seen) < n:
        seen.add(tuple(sorted(rng.sample(base, 3))))
    return tuple(sorted(seen))


def build_hardness(api, seed, out_dir):
    rng = random.Random(f"hardness:{seed}")
    red = api.reductions
    cases = []

    for name, graph, ks in VC_CASES:
        vs, es = _relabel_graph(rng, name, graph)
        for k in ks:
            g = red.CubicGraphVC(vs, tuple(frozenset(e) for e in es), k)
            cases.append(HardCase("vc", f"vc/{name}/k{k}",
                                  red.cubic_vc_to_weakcondorcet_ccrepc_tp(g),
                                  {"vertices": vs, "edges": es, "k": k}))

    for n, want_yes, want_no in X3C_RANDOM:
        def draw_x3c():
            triples = _random_triples(rng, X3C_BASE, n)
            x = red.X3CInstance(X3C_BASE, tuple(frozenset(t) for t in triples))
            return red.solve_x3c_bruteforce(x), (x, triples)

        for x, triples in fill_quota({True: want_yes, False: want_no}, draw_x3c):
            cases.append(HardCase("x3c", f"x3c/n{n}/{len(cases)}",
                                  red.x3c_to_plurality_ccpvg_te(x),
                                  {"base": X3C_BASE, "triples": triples}))
    n, count = X3C_NO_COVER
    pairs = [(a, b) for i, a in enumerate(X3C_BASE[1:]) for b in X3C_BASE[2 + i:]]
    for _ in range(count):
        triples = tuple(sorted((X3C_BASE[0],) + pr for pr in rng.sample(pairs, n)))
        x = red.X3CInstance(X3C_BASE, tuple(frozenset(t) for t in triples))
        cases.append(HardCase("x3c", f"x3c-nocover/n{n}/{len(cases)}",
                              red.x3c_to_plurality_ccpvg_te(x),
                              {"base": X3C_BASE, "triples": triples}))

    el, ts = api.elections, api.two_stage
    cands = tuple(el.Candidate(c) for c in APPROVAL_CANDIDATES)
    for nvot, want_yes, want_no in APPROVAL_SOURCES:
        def draw_source():
            approvals = tuple(frozenset(c for c in APPROVAL_CANDIDATES if rng.random() < 0.5)
                              for _ in range(nvot))
            profile = el.Profile(cands, tuple(el.approval(a) for a in approvals))
            src = ts.ControlInstance(problem=ts.Problem.CCPV, rule=el.VotingRule.APPROVAL,
                                     profile=profile, p="p", tie=ts.TieRule.TE)
            return api.oracle.oracle_solve(src).answer, src

        for src in fill_quota({"yes": want_yes, "no": want_no}, draw_source):
            cases.append(HardCase("approval-e", f"approval-e/{len(cases)}",
                                  red.approval_ccpv_te_to_e_ccpv_tp(src),
                                  {"source": plain_instance(src)}))
    rng.shuffle(cases)

    ops = [Op(c.label, lambda c=c: _run_oracle(api, c)) for c in cases]

    def check(outputs):
        records = [{"case": c, "plain": plain_instance(c.target), "out": out}
                   for c, out in zip(cases, outputs) if "error" not in out]
        return check_hardness(records)

    return Workload(ops, check)


def source_answer(case) -> str:
    """The source problem's answer by the reference brute force."""
    s = case.source
    if case.kind == "vc":
        found = refcheck.vertex_cover_exists(s["vertices"], s["edges"], s["k"])
    elif case.kind == "x3c":
        found = refcheck.exact_cover_exists(s["base"], s["triples"])
    else:
        return refcheck.brute_force(s["source"])
    return "yes" if found else "no"


def pull_back_cover(plain, witness):
    """The vertices on the side of the candidate partition without p."""
    side = witness["c2"] if plain.p in witness["c1"] else witness["c1"]
    return {c[2:] for c in side if c.startswith("v:")}


def check_hardness(records):
    problems = []
    for r in records:
        case, plain, out = r["case"], r["plain"], r["out"]
        bad = []
        want = source_answer(case)
        if out["answer"] != want:
            bad.append(f"oracle says {out['answer']}, source brute force says {want}")
        bad += _oracle_count_problems(plain, out)
        if out["answer"] == "yes":
            if not refcheck.accepts(plain, out["witness"] or {}):
                bad.append("witness rejected by the reference evaluator")
            elif case.kind == "vc":
                cover = pull_back_cover(plain, out["witness"])
                if not refcheck.is_cover(cover, case.source["edges"], case.source["k"]):
                    bad.append(f"pulled-back set {sorted(cover)} is not a cover of size "
                               f"<= {case.source['k']}")
        problems += _problems_of(case.label, bad)
    return problems


# ------------------------------------------------------------------ poly-large

# kind, candidates, voters, documents. "-no" kinds are no by a counting
# argument (refcheck.no_by_count); "-yes" kinds carry a planted witness.
# Ordered by cost, the slots form bands: 24 small system-E documents, 36
# mid-size parse-bound ones (p50 falls among them), 25 solver-bound ones,
# 10 ccepv-no documents with 20 candidates (p90 falls among them) and 5
# costlier ones, so neither percentile sits between two bands.
POLY_LARGE_SLOTS = (
    ("e-ccepv", 8, 1000, 24),
    ("e-ccepv", 12, 2000, 30), ("ccepv-no", 5, 1000, 6),
    ("wcrpc-no", 5, 2000, 2), ("wcrpc-no", 10, 1000, 2),
    ("ccpkv-no", 5, 1000, 4), ("ccpkv-yes", 5, 1000, 4),
    ("ccepv-no", 10, 1000, 4), ("ccepv-yes", 5, 1000, 4), ("ccepv-yes", 10, 1000, 3),
    ("wcrpc-yes", 5, 2000, 1), ("wcrpc-yes", 10, 1000, 1),
    ("ccepv-no", 20, 1000, 10),
    ("wcrpc-no", 20, 1000, 1), ("ccepv-yes", 20, 1000, 2), ("wcrpc-yes", 20, 1000, 2),
)
P_MINORITY_TOPS = 5         # ballots p tops in a ccepv-no document
CCPKV_K = 2

_HEAD = '{"format":"electctl/1","problem":"CCEPV","rule":"plurality","tie":"TE","p":"p",'
# The five malformed documents: each must give exit 3 (error).
MALFORMED = (
    ("ballot-is-string", _HEAD + '"candidates":[{"id":"p"},{"id":"a"}],"ballots":["pa"]}'),
    ("order-is-number", _HEAD + '"candidates":[{"id":"p"},{"id":"a"}],"ballots":[{"order":5}]}'),
    ("k-is-string", '{"format":"electctl/1","problem":"CCPkV","rule":"plurality","tie":"TE",'
                    '"p":"p","k":"3","candidates":[{"id":"p"},{"id":"a"}],'
                    '"ballots":[{"order":["p","a"]}]}'),
    ("candidates-is-string", _HEAD + '"candidates":"pa","ballots":[{"order":["p","a"]}]}'),
    ("approval-under-plurality", _HEAD + '"candidates":[{"id":"p"},{"id":"a"}],'
                                 '"ballots":[{"approve":["p"]},{"approve":["a"]}]}'),
)


@dataclass
class DocCase:
    label: str
    kind: str
    plain: RefInstance
    path: Path
    planted: dict | None


def _orders(rng, firsts, cands, p_last):
    """One ballot per entry of ``firsts``: that candidate first, the rest in
    random order (with p last when ``p_last``)."""
    ballots = []
    for top in firsts:
        rest = [c for c in cands if c != top and not (p_last and c == "p")]
        rng.shuffle(rest)
        tail = ["p"] if p_last and top != "p" else []
        ballots.append(tuple([top] + rest + tail))
    rng.shuffle(ballots)
    return tuple(ballots)


def _random_firsts(rng, cands, n):
    return [rng.choice(cands) for _ in range(n)]


def _make_doc(rng, kind, m, n):
    cands = ("p",) + tuple(f"c{i}" for i in range(1, m))
    others = cands[1:]
    planted = None
    if kind == "e-ccepv":
        plain_ids = ("p",) + tuple(f"x{i}" for i in range(1, m - 4))
        specials = {f"s{i}": i for i in range(4)}
        ids = plain_ids + tuple(specials)
        ballots = tuple(frozenset(c for c in ids if rng.random() < 0.3) for _ in range(n))
        return RefInstance("CCEPV", refcheck.SYSTEM_E, "TP", ids, ballots, "p", specials), None
    if kind == "ccepv-no":
        firsts = ["p"] * P_MINORITY_TOPS + _random_firsts(rng, others, n - P_MINORITY_TOPS)
        ballots = _orders(rng, firsts, cands, p_last=True)
        return RefInstance("CCEPV", refcheck.PLURALITY, "TE", cands, ballots, "p"), None
    if kind == "ccepv-yes":
        lead = n // m + 10
        rest = n - lead
        firsts = ["p"] * lead + [others[i % len(others)] for i in range(rest)]
        ballots = _orders(rng, firsts, cands, p_last=False)
        order = sorted(range(n), key=lambda i: cands.index(ballots[i][0]))
        planted = {"type": "voter_partition", "parts": [order[0::2], order[1::2]]}
        return RefInstance("CCEPV", refcheck.PLURALITY, "TE", cands, ballots, "p"), planted
    majority = n // 2 + 1
    if kind in ("wcrpc-no", "ccpkv-no"):
        lead, small = "c1", ["p"] * P_MINORITY_TOPS
        pool = [c for c in others if c != "c1"]
    else:
        lead, small, pool = "p", [], list(others)
    firsts = [lead] * majority + small + _random_firsts(rng, pool, n - majority - len(small))
    ballots = _orders(rng, firsts, cands, p_last=False)
    if kind.startswith("wcrpc"):
        if kind == "wcrpc-yes":
            planted = {"type": "candidate_partition", "c1": ["p"], "c2": list(others)}
        return RefInstance("CCRPC", refcheck.WEAK_CONDORCET, "TP", cands, ballots, "p"), planted
    if kind == "ccpkv-yes":
        planted = {"type": "voter_partition",
                   "parts": [list(range(n))] + [[] for _ in range(CCPKV_K - 1)]}
    return RefInstance("CCPkV", refcheck.PLURALITY, "TE", cands, ballots, "p", k=CCPKV_K), planted


def doc_text(inst: RefInstance) -> str:
    """The electctl/1 document of a plain instance, one entry per ballot."""
    doc = {"format": "electctl/1", "problem": inst.problem, "rule": inst.rule,
           "p": inst.p, "tie": inst.tie}
    if inst.k is not None:
        doc["k"] = inst.k
    doc["candidates"] = [{"id": c, "special": inst.specials[c]} if c in inst.specials
                         else {"id": c} for c in inst.candidates]
    doc["ballots"] = [{"approve": sorted(b)} if isinstance(b, frozenset) else {"order": list(b)}
                      for b in inst.ballots]
    return json.dumps(doc, separators=(",", ":"))


def _run_doc(api, case):
    rc, out, err, seconds, error = call_cli(api, ["solve", str(case.path)])
    if error is not None:
        return {"error": error}, seconds
    try:
        record = json.loads(out)
    except ValueError:
        return {"error": f"solve exit {rc} without a result record: {err.strip()}"}, seconds
    result = {"exit": rc, "answer": record.get("answer"), "witness": record.get("witness"),
              "cases": record.get("stats", {}).get("cases")}
    if result["answer"] == "yes":
        wpath = case.path.with_suffix(".witness.json")
        wpath.write_text(json.dumps({"format": "electctl/1", "witness": result["witness"]}))
        rc, _, _, more, error = call_cli(api, ["verify", str(case.path), str(wpath)])
        seconds += more
        if error is not None:
            return {"error": error}, seconds
        result["verify_exit"] = rc
    return result, seconds


def _run_malformed(api, path):
    rc, _, _, seconds, error = call_cli(api, ["solve", str(path)])
    if error is not None:
        return {"error": error}, seconds
    if rc != 3:
        return {"error": f"exit {rc}, expected 3"}, seconds
    return {"exit": rc}, seconds


def build_poly_large(api, seed, out_dir):
    rng = random.Random(f"poly-large:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for kind, m, n, count in POLY_LARGE_SLOTS:
        for _ in range(count):
            plain, planted = _make_doc(rng, kind, m, n)
            path = out_dir / f"doc-{len(cases):03d}.json"
            path.write_text(doc_text(plain))
            cases.append(DocCase(f"{kind}/m{m}/n{n}/{len(cases)}", kind, plain, path, planted))
    rng.shuffle(cases)
    ops = [Op(c.label, lambda c=c: _run_doc(api, c)) for c in cases]
    for name, text in MALFORMED:
        path = out_dir / f"malformed-{name}.json"
        path.write_text(text)
        ops.append(Op(f"malformed/{name}", lambda path=path: _run_malformed(api, path),
                      instance=False))

    def check(outputs):
        records = [{"case": c, "out": out} for c, out in zip(cases, outputs)
                   if "error" not in out]
        return check_poly_large(records)

    return Workload(ops, check)


def check_poly_large(records):
    problems = []
    for r in records:
        case, out = r["case"], r["out"]
        bad = []
        answer = out["answer"]
        if out["exit"] != {"yes": 0, "no": 1}.get(answer):
            bad.append(f"exit {out['exit']} for answer {answer!r}")
        if case.planted is None:
            argument = refcheck.no_by_count(case.plain)
            if argument is None:
                bad.append("no counting argument proves this instance a no")
            if answer != "no":
                bad.append(f"answered {answer!r}, but {argument} proves no")
        else:
            if not refcheck.accepts(case.plain, case.planted):
                bad.append("planted witness rejected by the reference evaluator")
            if answer != "yes":
                bad.append(f"answered {answer!r} despite an accepted planted witness")
            elif not refcheck.accepts(case.plain, out["witness"] or {}):
                bad.append("witness rejected by the reference evaluator")
            elif out.get("verify_exit") != 0:
                bad.append(f"verify exit {out.get('verify_exit')} on the solver's witness")
        problems += _problems_of(case.label, bad)
    return problems


def build(name, api, seed, out_dir) -> Workload:
    builds = {"sweep": build_sweep, "hardness": build_hardness, "poly-large": build_poly_large}
    return builds[name](api, seed, out_dir)
