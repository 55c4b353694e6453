"""Command-line front end: solve, verify, reduce, sweep, gen.

Exit statuses are the machine contract: 0 = yes / accepted, 1 = no /
rejected, 2 = unknown (budget exceeded), 3 and up = error. Human-readable
output may change between versions; the JSON/CSV documents are stable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import random
import sys
import time
from pathlib import Path

from .elections import VotingRule
from .generate import FAMILIES, family_instance, random_instance
from .instance_io import (
    FORMAT,
    FormatError,
    check_sizes,
    cubic_vc_from_dict,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    load_document,
    parse_instance,
    parse_witness,
    serialize_instance,
    witness_to_dict,
    x3c_from_dict,
)
from .oracle import DEFAULT_BUDGET, oracle_solve
from .reductions import (
    approval_ccpv_te_to_e_ccpv_tp,
    cubic_vc_to_weakcondorcet_ccrepc_tp,
    x3c_to_plurality_ccpvg_te,
)
from .solvers import solve_poly
from .two_stage import NO, TAKES, UNKNOWN, YES, Problem, TieRule, replay

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3

_ANSWER_EXIT = {YES: EXIT_YES, NO: EXIT_NO, UNKNOWN: EXIT_UNKNOWN}

SWEEP_COLUMNS = (
    "instance_digest", "problem", "rule", "tie",
    "answer_poly", "answer_oracle", "agree", "ms_poly", "ms_oracle",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for "unknown".
    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _run_solver(instance, solver: str, budget: int):
    start = time.perf_counter()
    if solver == "poly":
        decision = solve_poly(instance)
    else:
        decision = oracle_solve(instance, budget=budget)
    ms = (time.perf_counter() - start) * 1000.0
    return decision, ms


def cmd_solve(args) -> int:
    instance = parse_instance(Path(args.file).read_text())
    decision, ms = _run_solver(instance, args.solver, args.budget)
    record = {
        "format": FORMAT,
        "instance_digest": instance_digest(instance),
        "solver": args.solver,
        "answer": decision.answer,
        "stats": decision.stats,
        "ms": round(ms, 3),
    }
    if decision.witness is not None:
        record["witness"] = witness_to_dict(decision.witness)["witness"]
    _write_out(json.dumps(record, indent=1) + "\n", args.out)
    return _ANSWER_EXIT[decision.answer]


def cmd_verify(args) -> int:
    instance = parse_instance(Path(args.instance).read_text())
    witness = parse_witness(Path(args.witness).read_text())
    result = replay(instance, witness)
    if result is not None:
        finalists, final = result
        if finalists is not None:
            print(f"finalists: {sorted(finalists)}")
        print(f"final winners: {sorted(final)}")
    accepted = result is not None and result[1] == {instance.p}
    print("accepted" if accepted else "rejected")
    return EXIT_YES if accepted else EXIT_NO


# Per reduction: its source reader, the reduction, and the (candidates,
# ballots) of the election it builds from a source.
REDUCTIONS = {
    "x3c": (x3c_from_dict, x3c_to_plurality_ccpvg_te,
            lambda x: (4 + 3 * x.m, 9 * x.n + 6 * x.n * x.m + 8 * x.m + 3)),
    "cvc": (cubic_vc_from_dict, cubic_vc_to_weakcondorcet_ccrepc_tp,
            lambda g: (3 * len(g.vertices) + 2 * g.k, 12 * len(g.vertices) + 4 * g.k - 2)),
    "approval-e": (instance_from_dict, approval_ccpv_te_to_e_ccpv_tp,
                   lambda src: (len(src.profile.candidates) + 4,
                                len(src.profile.ballots) + 2 - len(src.profile.ballots) % 2)),
}


def cmd_reduce(args) -> int:
    source_text = Path(args.source).read_text()
    read, reduce, sizes = REDUCTIONS[args.kind]
    source = read(load_document(source_text))
    check_sizes(*sizes(source))
    instance = reduce(source)
    out_doc = instance_to_dict(instance)
    out_doc["provenance"] = {
        "reduction": args.kind,
        "source_sha256": hashlib.sha256(source_text.encode()).hexdigest(),
    }
    _write_out(json.dumps(out_doc, indent=1) + "\n", args.out)
    return EXIT_YES


def cmd_sweep(args) -> int:
    if args.family not in FAMILIES:
        raise FormatError(f"unknown family {args.family!r}; "
                          f"choose from {sorted(FAMILIES)}")
    if (args.k is None) == ("k" in TAKES[FAMILIES[args.family][0]]):
        raise FormatError(f"family {args.family} {'needs' if args.k is None else 'takes no'} --k")
    rng = random.Random(args.seed)
    rows = []
    disagreements = []
    for _ in range(args.count):
        instance = family_instance(rng, args.family,
                                   args.candidates, args.voters, k=args.k)
        digest = instance_digest(instance)
        poly, ms_poly = _run_solver(instance, "poly", args.budget)
        orc, ms_orc = _run_solver(instance, "oracle", args.budget)
        if UNKNOWN in (poly.answer, orc.answer):
            agree = ""
        else:
            agree = "1" if poly.answer == orc.answer else "0"
        if agree == "0":
            disagreements.append((digest, instance))
        rows.append({
            "instance_digest": digest,
            "problem": instance.problem.value,
            "rule": instance.rule.value,
            "tie": instance.tie.value if instance.tie else "",
            "answer_poly": poly.answer,
            "answer_oracle": orc.answer,
            "agree": agree,
            "ms_poly": f"{ms_poly:.3f}",
            "ms_oracle": f"{ms_orc:.3f}",
        })
    rows.sort(key=lambda r: r["instance_digest"])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write_out(buf.getvalue(), args.out)

    outdir = Path(args.out).parent if args.out else Path.cwd()
    for digest, instance in disagreements:
        (outdir / f"counterexample-{digest}.json").write_text(
            serialize_instance(instance))
    decided = [r for r in rows if r["agree"] != ""]
    rate = (sum(r["agree"] == "1" for r in decided) / len(decided)
            if decided else 1.0)
    summary = {"count": len(rows), "decided": len(decided),
               "agreement_rate": rate, "disagreements": len(disagreements)}
    print(json.dumps(summary), file=sys.stderr)
    return EXIT_YES if not disagreements else EXIT_NO


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    instance = random_instance(
        rng,
        Problem(args.problem),
        VotingRule(args.rule),
        TieRule(args.tie) if args.tie else None,
        args.candidates,
        args.voters,
        k=args.k,
        limit=args.limit,
        n_groups=args.groups,
        pool_size=args.pool_size,
        with_specials=args.specials,
    )
    _write_out(serialize_instance(instance), args.out)
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="electctl",
                     description="Election control by partition: solvers and oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide a control instance")
    p_solve.add_argument("file")
    p_solve.add_argument("--solver", choices=("poly", "oracle"), default="poly")
    p_solve.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_solve.add_argument("--out")

    p_verify = sub.add_parser("verify", help="check a witness against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("witness")

    p_reduce = sub.add_parser("reduce", help="generate a hardness-reduction instance")
    p_reduce.add_argument("kind", choices=tuple(REDUCTIONS))
    p_reduce.add_argument("source")
    p_reduce.add_argument("--out")

    p_sweep = sub.add_parser("sweep", help="poly-vs-oracle agreement sweep")
    p_sweep.add_argument("family", help=f"one of {sorted(FAMILIES)}")
    p_sweep.add_argument("--candidates", type=int, default=3)
    p_sweep.add_argument("--voters", type=int, default=6)
    p_sweep.add_argument("--k", type=int)
    p_sweep.add_argument("--count", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_sweep.add_argument("--out")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--problem", required=True,
                       choices=[p.value for p in Problem])
    p_gen.add_argument("--rule", required=True,
                       choices=[r.value for r in VotingRule])
    p_gen.add_argument("--tie", choices=[t.value for t in TieRule])
    p_gen.add_argument("--candidates", type=int, default=3)
    p_gen.add_argument("--voters", type=int, default=6)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--limit", type=int)
    p_gen.add_argument("--groups", type=int)
    p_gen.add_argument("--pool-size", type=int)
    p_gen.add_argument("--specials", action="store_true")
    p_gen.add_argument("--out")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process; parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for name in ("budget", "count"):
            if getattr(args, name, 0) < 0:
                raise ValueError(f"--{name} must be at least 0, got {getattr(args, name)}")
        # Looked up when called, so a replaced cmd_* attribute takes effect.
        return globals()[f"cmd_{args.command}"](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"electctl: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
