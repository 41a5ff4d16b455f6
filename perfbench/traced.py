"""Run one pdra-bench sweep with the calls into each layer timed.

Usage (from the repository root, with src on PYTHONPATH):

    python3 -u perfbench/traced.py TRACE.json [pdra-bench arguments]

The script wraps public functions at the module attributes through which the
program calls them (for example ``pdra.simulate.trial_rng`` and
``PilotPool.root_and_shifts``), runs ``pdra.bench.main`` and writes a JSON
trace.  Spans are kept in memory and written at the end: calls at or above
one grid point are kept whole (name, parent, start, end), and calls inside a
trial are summed per name (calls, total and self nanoseconds), which keeps
memory flat at any trial count.  Pool workers under ``--threads N`` are not
followed: their calls are missing from the trace.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from time import perf_counter_ns

_t = time.perf_counter()
import pdra  # noqa: E402
import pdra.analytic  # noqa: E402
import pdra.bench  # noqa: E402
import pdra.simulate  # noqa: E402

IMPORT_S = time.perf_counter() - _t

# Names whose every call is kept as a span; all others are only summed.
KEEP = {
    "bench.build_spec", "bench.expand_grid", "bench.point_error",
    "bench.run_campaign", "bench.result_rows", "bench.write_csv",
    "bench.write_sidecar", "simulate.run_point", "analytic.reference",
}


class Tracer:
    """Span stack with per-name sums; each frame is [child_ns, span_id]."""

    def __init__(self):
        self.stack: list[list[int]] = []
        self.sums: dict[str, list[int]] = {}
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.next_id = 1

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        fn = getattr(owner, attr)
        keep = name in KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1][1] if self.stack else 0
            self.stack.append([0, span_id])
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                child_ns, _ = self.stack.pop()
                dur = end - start
                if self.stack:
                    self.stack[-1][0] += dur
                rec = self.sums.setdefault(name, [0, 0, 0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child_ns
                if keep:
                    self.spans.append({"id": span_id, "parent": parent, "name": name,
                                       "start_ns": start, "end_ns": end})
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def record(self) -> dict:
        return {"sums": self.sums, "spans": self.spans, "counts": self.counts}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def install(tracer: Tracer) -> dict:
    """Wrap the layer boundaries; returns the record of the campaign's CPU."""
    bench, sim, ana = pdra.bench, pdra.simulate, pdra.analytic
    events = {sim.EVENT_IDENTICAL: "identical", sim.EVENT_E0: "e0",
              sim.EVENT_E1: "e1", sim.EVENT_E2: "e2"}

    # bench: spec, grid, rows and output files
    tracer.wrap(bench, "build_spec", "bench.build_spec")
    tracer.wrap(bench, "expand_grid", "bench.expand_grid")
    tracer.wrap(bench, "_point_error", "bench.point_error")
    tracer.wrap(bench, "_result_rows", "bench.result_rows")
    tracer.wrap(bench, "write_csv", "bench.write_csv")
    tracer.wrap(bench, "write_sidecar", "bench.write_sidecar")
    # analytic: both call sites of the per-point closed form, and its pieces
    tracer.wrap(bench, "analytic_reference", "analytic.reference")
    tracer.wrap(sim, "analytic_reference", "analytic.reference")
    for owner in (ana, sim):
        tracer.wrap(owner, "success_probability_pdra", "analytic.fixed_n")
        tracer.wrap(owner, "success_probability_conventional", "analytic.fixed_n")
    tracer.wrap(ana, "collision_event_probs", "analytic.event_probs")
    # simulate.trial: one trial and its stages
    tracer.wrap(sim, "run_point", "simulate.run_point")
    tracer.wrap(sim, "run_trial", "simulate.trial")
    tracer.wrap(sim, "trial_rng", "simulate.rng_setup")
    tracer.wrap(sim, "classify_tagged_collision", "simulate.classify",
                on_result=lambda ev: tracer.count("event." + events[ev]))
    tracer.wrap(sim._PatternCorrelator, "coefficient", "simulate.coef")
    tracer.wrap(sim, "mf_sinr", "simulate.sinr")
    tracer.wrap(sim, "detect_data_symbol", "simulate.data_stage")
    # pool, geometry and the zc correlation-profile table
    tracer.wrap(sim.PilotPool, "root_and_shifts", "pool.lookup")
    tracer.wrap(sim, "drop_ue", "geometry.drop_ue")
    tracer.wrap(sim, "correlation_factor", "geometry.corr_factor")
    tracer.wrap(sim, "_root_pair_profiles", "zc.profile_table")

    campaign = {"cpu_s": 0.0}
    run_campaign = bench.run_campaign

    @functools.wraps(run_campaign)
    def campaign_with_cpu(*args, **kwargs):
        before = _cpu_s()
        try:
            return run_campaign(*args, **kwargs)
        finally:
            campaign["cpu_s"] += _cpu_s() - before

    bench.run_campaign = campaign_with_cpu
    tracer.wrap(bench, "run_campaign", "bench.run_campaign")

    return campaign


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    if not pdra.__file__.startswith(os.path.abspath("src") + os.sep):
        print(f"traced.py: pdra imported from {pdra.__file__}, not ./src",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    campaign = install(tracer)
    rc = pdra.bench.main(argv)
    record = tracer.record()
    record.update(import_s=IMPORT_S, campaign_cpu_s=campaign["cpu_s"])
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
