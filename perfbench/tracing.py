"""Spans and counts around electctl's public functions, for the traced run.

``Tracer.install(api)`` replaces each function listed in ``LAYERS`` by a
wrapper in every electctl module that holds a reference to it (modules
import each other's functions by name), and ``uninstall()`` puts the
originals back. A wrapper records a span (id, parent id, name, start, end,
request) and adds its duration to the calls, inclusive time and self time
of its function; self time is the span's duration minus the time covered
by its child spans. Spans are kept in memory up to ``span_cap``; the
aggregates count every call.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "instance_io": ("parse_instance", "parse_witness", "instance_digest"),
    "elections": ("winners", "condorcet_winners_from_margins", "pairwise_margins"),
    "two_stage": ("verify_witness", "run_two_stage_voter_partition",
                  "run_two_stage_candidate_partition", "finalists_voter_partition"),
    "oracle": ("oracle_solve",),
    "solvers": ("solve_poly",),
    "cli": ("main", "cmd_solve", "cmd_verify", "cmd_sweep"),
    "generate": ("random_instance", "family_instance"),
    "reductions": ("cubic_vc_to_weakcondorcet_ccrepc_tp", "x3c_to_plurality_ccpvg_te",
                   "approval_ccpv_te_to_e_ccpv_tp"),
}


class Tracer:
    def __init__(self, span_cap=50_000):
        self.span_cap = span_cap
        self.request = None
        self._patched = []
        self.reset()

    def reset(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0

    # -------------------------------------------------------------- install

    def install(self, api):
        wrappers = {}
        for layer, names in LAYERS.items():
            module = getattr(api, layer)
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "electctl" and not modname.startswith("electctl."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    def _wrap(self, key, fn):
        stack = self._stack
        observe = OBSERVERS.get(key)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                self.calls[key] += 1
                self.incl[key] += took
                self.self_time[key] += took - frame[1]
                if parent is not None:
                    parent[1] += took
                if len(self.spans) < self.span_cap:
                    self.spans.append((frame[0], parent[0] if parent else None, key,
                                       start, end, self.request))
            if observe is not None:
                observe(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------------- metrics

    def layer_self(self, layer):
        return sum(t for key, t in self.self_time.items() if key.startswith(layer + "."))

    def per_layer(self, rounds):
        """Per-layer metrics, per round of the workload."""
        c, incl, own, n = self.counts, self.incl, self.self_time, self.calls
        parse_s = incl["instance_io.parse_instance"] + incl["instance_io.parse_witness"]
        oracle_s = incl["oracle.oracle_solve"]
        solve_s = incl["solvers.solve_poly"]
        replays = n["two_stage.verify_witness"]
        per = 1.0 / rounds
        return {
            "instance_io.parse_ms": (parse_s * 1000 * per, "ms"),
            "instance_io.parse_mb_per_s": (_ratio(c["parse_bytes"] / 1e6, parse_s), "MB/s"),
            "instance_io.digest_ms": (incl["instance_io.instance_digest"] * 1000 * per, "ms"),
            "instance_io.docs": (n["instance_io.parse_instance"] * per, "count"),
            "elections.winners_calls": ((n["elections.winners"]
                                         + n["elections.condorcet_winners_from_margins"]) * per,
                                        "count"),
            "elections.winners_self_ms": ((own["elections.winners"]
                                           + own["elections.condorcet_winners_from_margins"])
                                          * 1000 * per, "ms"),
            "elections.margins_ms": (incl["elections.pairwise_margins"] * 1000 * per, "ms"),
            "two_stage.replays": (replays * per, "count"),
            "two_stage.replay_self_ms": (self.layer_self("two_stage") * 1000 * per, "ms"),
            "two_stage.replay_us": (_ratio(incl["two_stage.verify_witness"] * 1e6, replays),
                                    "us"),
            "oracle.witnesses": (c["witnesses"] * per, "count"),
            "oracle.witnesses_per_s": (_ratio(c["witnesses"], oracle_s), "1/s"),
            "oracle.enum_self_ms": (own["oracle.oracle_solve"] * 1000 * per, "ms"),
            "oracle.accept_ratio": (_ratio(c["oracle_yes"], c["witnesses"]), "ratio"),
            "solvers.cases": (c["solver_cases"] * per, "count"),
            "solvers.ms": (solve_s * 1000 * per, "ms"),
            "solvers.cases_per_s": (_ratio(c["solver_cases"], solve_s), "1/s"),
            "cli.calls": (n["cli.main"] * per, "count"),
            "cli.self_ms": (self.layer_self("cli") * 1000 * per, "ms"),
        }

    def setup_layers(self):
        """Time spent building inputs, from a traced set-up."""
        return {
            "generate.ms": (self.layer_self("generate") * 1000, "ms"),
            "reductions.ms": (self.layer_self("reductions") * 1000, "ms"),
        }


def _ratio(a, b):
    return a / b if b else 0.0


def _count_bytes(counts, args, result):
    counts["parse_bytes"] += len(args[0])


def _count_witnesses(counts, args, result):
    counts["witnesses"] += result.stats.get("cases", 0)
    counts["oracle_yes"] += result.answer == "yes"


def _count_cases(counts, args, result):
    counts["solver_cases"] += result.stats.get("cases", 0)


OBSERVERS = {
    "instance_io.parse_instance": _count_bytes,
    "instance_io.parse_witness": _count_bytes,
    "oracle.oracle_solve": _count_witnesses,
    "solvers.solve_poly": _count_cases,
}
