"""Run one benchmark workload of electctl and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports electctl from
``src/`` and writes its scratch files under ``perfbench/out/``. The load is
a closed loop in this one process and thread: each operation starts when
the previous one has returned, and every round makes the same operations
in the same order. Rounds repeat until ``--seconds`` is used up. After the
timed rounds, the outputs of the first round are checked against the
reference checker and every later round must have produced the same
outputs.

The host's speed drifts (other tenants share its cores), so every round
also times a fixed probe that runs no electctl code, and each operation's
time in a round is scaled by PROBE_REF_S / (the probe's median time in
that round). An operation's time is the median of its scaled times over
the rounds: the time it would take on the reference host at the probe's
reference speed.

With ``--trace 0`` the last line is the end-to-end result; with
``--trace 1`` untraced and traced rounds alternate and the last line holds
the per-layer metrics. The full result, with each operation's times, is
also written to ``perfbench/out/<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import refcheck  # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 3
PROBE_SLOTS = 10
# The probe's time on the reference host (2 cores, Python 3.11.7) when no
# other tenant slows it; the unit of every scaled time.
PROBE_REF_S = 0.004


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "hardness", "poly-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(workloads, name, seed, out_dir, tracer=None):
    """Import electctl afresh and build the workload; returns (api, workload, seconds)."""
    start = perf_counter()
    api = workloads.load_electctl()
    if tracer is not None:
        tracer.install(api)
    try:
        workload = workloads.build(name, api, seed, out_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return api, workload, perf_counter() - start


def make_probe():
    """A fixed routine of the benchmark's own: 40 two-stage plurality replays
    of a 40-voter election and 40 Condorcet counts over 5 candidates, with
    the garbage collector off so that the program's garbage is not swept
    inside it."""
    rng = random.Random(0)
    cands = ("p", "a", "b", "c", "d")
    inst = refcheck.RefInstance("CCEPV", refcheck.PLURALITY, "TE", cands,
                                tuple(tuple(rng.sample(cands, 5)) for _ in range(40)), "p")
    parts = [list(range(20)), list(range(20, 40))]

    def probe():
        gc.disable()
        try:
            start = perf_counter()
            for _ in range(40):
                refcheck.two_stage_voters(inst, parts)
                refcheck.winners(refcheck.CONDORCET, cands, inst.ballots)
            return perf_counter() - start
        finally:
            gc.enable()

    return probe


def run_round(ops, probe, tracer=None):
    """One pass over the operations: their outputs, their times in program
    calls, and the probe's times at PROBE_SLOTS evenly spaced points. A
    tracer's spans are tagged with the operation's label."""
    outputs, times, probes = [], [], []
    every = max(1, len(ops) // PROBE_SLOTS)
    for i, op in enumerate(ops):
        if i % every == 0 and len(probes) < PROBE_SLOTS:
            probes.append(probe())
        if tracer is not None:
            tracer.request = op.label
        out, seconds = op.run()
        outputs.append(out)
        times.append(seconds)
    return outputs, times, probes


def measure(workload, seconds, tracer=None, api=None):
    """Repeat rounds until the time is used up.

    Without a tracer every round is untraced. With one, rounds alternate
    untraced and traced, starting untraced. A new round starts only while
    it is expected to end within half a round of ``seconds``. Operation
    times come from the untraced rounds only.
    """
    ops = workload.ops
    probe = make_probe()
    first = None
    scaled = []                                  # per untraced round, per operation
    round_scaled = {False: [], True: []}         # scaled round times
    probe_medians = []
    mismatched = set()
    rounds = attempted = failed = 0
    start = perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install(api)
        t0 = perf_counter()
        try:
            outputs, times, probes = run_round(ops, probe, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        took = perf_counter() - t0 - sum(probes)
        speed = statistics.median(probes)
        probe_medians.append(speed)
        round_scaled[traced].append(took * PROBE_REF_S / speed)
        if not traced:
            scaled.append([t * PROBE_REF_S / speed for t in times])
        if first is None:
            first = outputs
        else:
            mismatched.update(i for i, (a, b) in enumerate(zip(first, outputs)) if a != b)
        rounds += 1
        attempted += len(ops)
        failed += sum("error" in out for out in outputs)
        elapsed = perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    return {
        "outputs": first,
        "op_s": [statistics.median(col) for col in zip(*scaled)],
        "round_scaled": round_scaled, "probe_medians": probe_medians,
        "mismatched": sorted(mismatched), "rounds": rounds,
        "attempted": attempted, "failed": failed, "elapsed": elapsed,
    }


def end_to_end(workload, m, setup_times):
    times = [t for op, out, t in zip(workload.ops, m["outputs"], m["op_s"])
             if op.instance and "error" not in out]
    ms = sorted(t * 1000 for t in times)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "instances_per_s": (len(times) / sum(times), "1/s"),
        "decide_ms_p50": (statistics.median(ms), "ms"),
        "decide_ms_p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, len(times)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "electctl" / "__init__.py").is_file():
        print(f"run.py: no electctl sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    import tracing

    out_dir = root / "perfbench" / "out"
    work_dir = out_dir / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)

    setup_times = []
    tracer = tracing.Tracer() if args.trace else None
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        api, workload, took = setup(workloads, args.workload, args.seed, work_dir,
                                    tracer if last else None)
        setup_times.append(took)

    detail = {"workload": args.workload, "seed": args.seed, "setup_s": setup_times}
    if tracer is not None:
        setup_metrics = tracer.setup_layers()
        tracer.reset()
        m = measure(workload, args.seconds, tracer, api)
        traced_rounds = len(m["round_scaled"][True])
        metrics = tracer.per_layer(traced_rounds)
        metrics.update(setup_metrics)
        overhead = (statistics.median(m["round_scaled"][True])
                    / statistics.median(m["round_scaled"][False]) - 1)
        metrics["trace.overhead_pct"] = (overhead * 100, "%")
        detail["spans"] = tracer.spans
    else:
        m = measure(workload, args.seconds)
        metrics, samples = end_to_end(workload, m, setup_times)
        detail["samples"] = samples
        print(f"{args.workload}: {samples} instances, median of {m['rounds']} rounds each; "
              f"probe median {statistics.median(m['probe_medians']) * 1000:.3f} ms "
              f"(reference {PROBE_REF_S * 1000:.3f} ms); unscaled wall rate "
              f"{samples * m['rounds'] / m['elapsed']:.3f}/s over {m['elapsed']:.1f} s")

    problems = workload.check(m["outputs"])
    problems += [f"{workload.ops[i].label}: output changed between rounds"
                 for i in m["mismatched"]]
    for line in problems[:50]:
        print(f"check: {line}", file=sys.stderr)
    errors = sorted({f"{op.label}: {out['error']}" for op, out in zip(workload.ops, m["outputs"])
                     if "error" in out})
    for line in errors:
        print(f"failed: {line}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update(result, rounds=m["rounds"], elapsed_s=m["elapsed"],
                  probe_medians=m["probe_medians"], round_scaled=m["round_scaled"],
                  problems=problems, errors=errors,
                  ops=[{"label": op.label, "ms": t * 1000}
                       for op, t in zip(workload.ops, m["op_s"])])
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
