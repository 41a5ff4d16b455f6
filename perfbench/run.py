"""End-to-end and per-layer benchmark of the pdra-bench figure sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload fig6-corr --seed 1 --seconds 55 --trace 0

Each sweep is one fresh ``python3 -m pdra.bench`` process, run as a user runs
it, with ``src`` on PYTHONPATH.  Sweeps repeat until the next one would end
after ``--seconds``; every sweep uses the same seed, so their CSVs must be
byte-identical.  The last line of standard output is one JSON object with
``correct``, ``attempted`` and ``failed`` (grid points) and ``metrics``:
medians over the run's sweeps of the end-to-end metrics with ``--trace 0``,
or the per-layer metrics of a traced sweep with ``--trace 1``.  See
perfbench/README.md for the workloads, the layers and the bounds.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

sys.dont_write_bytecode = True
import checks  # noqa: E402  (sibling module; the benchmark is not a package)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
TRACED = os.path.join(ROOT, "perfbench", "traced.py")

# Grid axes of the presets, written out here so that the checks do not take
# the expected grid from the program they check.
FIG5_AXES = dict(n_ss=(32, 64), l=(1, 2), r_roots=(1, 2, 3, 4), m_antennas=(128,),
                 rho=(0.0,), alpha_th_db=(5.0,), snr_db=(-10.0,),
                 p_a=(0.0015,), population=10_000)
FIG6_AXES = dict(n_ss=(32,), l=(2,), r_roots=(1, 2, 3, 4), m_antennas=(128, 256),
                 rho=(0.0, 0.7), alpha_th_db=(5.0,), snr_db=(-12.0,),
                 p_a=(0.001,), population=10_000)


@dataclass(frozen=True)
class Workload:
    preset: str
    flags: tuple[str, ...]
    trials: int
    axes: dict

    @property
    def analytic(self) -> bool:
        """Whether the CSV carries p_success_analytic (every mode but simulate)."""
        return "simulate" not in self.flags


WORKLOADS = {
    "fig6-corr": Workload("fig6", ("--threads", "1", "--mode", "simulate"), 60, FIG6_AXES),
    "fig5-model": Workload("fig5", ("--threads", "1", "--mode", "both"), 100, FIG5_AXES),
}

END_TO_END = {"setup_s": "s", "sweep_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    """The caller's environment with ./src first on PYTHONPATH.

    BLAS thread settings pass through untouched: the threads a user gets by
    default, and their spinning, are part of what the benchmark measures.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("PDRA_SEED", None)
    env.pop("PDRA_THREADS", None)
    return env


def sweep(work: Workload, seed: int, csv_path: str, trace_path: str | None) -> dict:
    """Run one pdra-bench process and time it from its output lines.

    setup_s ends when the program prints "running ..." just before the
    campaign; sweep_s ends when it prints "wrote ..." after the CSV and
    sidecar are written.  CPU and peak RSS come from wait4, which includes
    the pool workers the process reaped.
    """
    args = ["--preset", work.preset, *work.flags, "--trials", str(work.trials),
            "--seed", str(seed), "--out", csv_path]
    if trace_path is None:
        cmd = [sys.executable, "-u", "-m", "pdra.bench", *args]
    else:
        cmd = [sys.executable, "-u", TRACED, trace_path, *args]
    marks: dict[str, float] = {}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env())
    try:
        for line in proc.stdout:
            word = line.split(" ", 1)[0]
            if word in ("running", "wrote") and word not in marks:
                marks[word] = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    ok = proc.returncode == 0 and len(marks) == 2
    return {
        "ok": ok,
        "returncode": proc.returncode,
        "wall_s": wall,
        "setup_s": marks.get("running", wall),
        "sweep_s": marks.get("wrote", wall) - marks.get("running", 0.0),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


class Run:
    """Sweeps of one workload and seed, with their checks."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name, self.work, self.seed = name, WORKLOADS[name], seed
        self.deadline = time.perf_counter() + seconds
        self.dir = os.path.join(OUT, name)
        os.makedirs(self.dir, exist_ok=True)
        for stale in glob.glob(os.path.join(self.dir, "*")):
            os.remove(stale)
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_csv: bytes | None = None
        self.n = 0

    def time_left_for(self, durations: list[float]) -> bool:
        """True while another sweep of the median length ends by the deadline."""
        if not durations:
            return True
        return time.perf_counter() + statistics.median(durations) <= self.deadline

    def sweep(self, traced: bool) -> dict:
        self.n += 1
        csv_path = os.path.join(self.dir, f"sweep-{self.n}.csv")
        trace_path = os.path.join(self.dir, f"trace-{self.n}.json") if traced else None
        result = sweep(self.work, self.seed, csv_path, trace_path)
        print(f"sweep {self.n}{' traced' if traced else ''}: "
              + " ".join(f"{k}={result[k]:.3f}" for k in END_TO_END), file=sys.stderr)
        self.check(csv_path, result)
        result["trace_path"] = trace_path
        result["csv_path"] = csv_path
        return result

    def check(self, csv_path: str, result: dict) -> None:
        """Checks outside the timed region; failed points are counted."""
        n_points = len(checks.expected_grid(self.work.axes))
        self.attempted += n_points
        if not result["ok"]:
            self.failed += n_points
            self.errors.append(f"sweep {self.n}: exit {result['returncode']}")
            return
        errors, successes = checks.check_csv(csv_path, self.work.axes,
                                             self.work.trials, self.seed,
                                             self.work.analytic)
        self.failed += sum(1 for s in successes if s is None) if successes else n_points
        self.errors += [f"sweep {self.n}: {e}" for e in errors]
        with open(csv_path, "rb") as fh:
            data = fh.read()
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            self.errors.append(f"sweep {self.n}: CSV differs from sweep 1 at the same seed")

    def report(self, metrics: dict) -> dict:
        for err in self.errors:
            print(f"check failed: {err}", file=sys.stderr)
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def measure(run: Run) -> dict:
    """--trace 0: end-to-end medians over untraced sweeps."""
    results: list[dict] = []
    while run.time_left_for([r["wall_s"] for r in results]):
        results.append(run.sweep(traced=False))
    timed = [r for r in results if r["ok"]] or results
    return {name: {"value": statistics.median(r[name] for r in timed), "unit": unit}
            for name, unit in END_TO_END.items()}


def layer_metrics(trace: dict, csv_path: str, sweep_ratio: float) -> dict:
    """Per-layer metrics of one traced sweep (see README for each one)."""
    sums, counts = trace["sums"], trace["counts"]

    def calls(name):
        return sums.get(name, [0, 0, 0])[0]

    def total_s(*names):
        return sum(sums.get(n, [0, 0, 0])[1] for n in names) / 1e9

    def mean_us(name, own=False):
        c, total, self_ns = sums.get(name, [0, 0, 0])
        return (self_ns if own else total) / c / 1e3 if c else 0.0

    trials = calls("simulate.trial")
    points = calls("simulate.run_point")
    point_spans = [s for s in trace["spans"] if s["name"] == "simulate.run_point"]
    campaign_s = total_s("bench.run_campaign")
    analytic_s = total_s("analytic.reference")
    values = {
        "setup.import_s": (trace["import_s"], "s"),
        "setup.grid_s": (total_s("bench.build_spec", "bench.expand_grid",
                                 "bench.point_error"), "s"),
        "simulate.trials": (trials, "count"),
        "simulate.trial_us": (mean_us("simulate.trial"), "us"),
        "simulate.trial_self_us": (mean_us("simulate.trial", own=True), "us"),
        "simulate.rng_setup_us": (mean_us("simulate.rng_setup"), "us"),
        "simulate.classify_us": (mean_us("simulate.classify"), "us"),
        "simulate.coef_us": (mean_us("simulate.coef"), "us"),
        "simulate.coef_calls": (calls("simulate.coef"), "count"),
        "pool.lookup_us": (mean_us("pool.lookup"), "us"),
        "pool.lookup_calls": (calls("pool.lookup"), "count"),
        "simulate.sinr_us": (mean_us("simulate.sinr"), "us"),
        "simulate.data_stage_us": (mean_us("simulate.data_stage"), "us"),
        "simulate.sinr_stage_ratio": (calls("simulate.sinr") / trials if trials else 0.0,
                                      "ratio"),
        **{f"simulate.events.{ev}": (counts.get(f"event.{ev}", 0), "count")
           for ev in ("identical", "e0", "e1", "e2")},
        "geometry.corr_factor_us": (mean_us("geometry.corr_factor"), "us"),
        "geometry.corr_factor_calls": (calls("geometry.corr_factor"), "count"),
        "geometry.drop_ue_us": (mean_us("geometry.drop_ue"), "us"),
        "geometry.drop_ue_calls": (calls("geometry.drop_ue"), "count"),
        "zc.profile_table_s": (total_s("zc.profile_table"), "s"),
        "analytic.calls": (calls("analytic.reference"), "count"),
        "analytic.calls_per_point": (calls("analytic.reference") / points if points
                                     else 0.0, "ratio"),
        "analytic.s": (analytic_s, "s"),
        "analytic.ms_per_point": (analytic_s * 1e3 / points if points else 0.0, "ms"),
        "analytic.fixed_n_evals": (calls("analytic.fixed_n"), "count"),
        "analytic.event_prob_calls": (calls("analytic.event_probs"), "count"),
        "campaign.wall_s": (campaign_s, "s"),
        "campaign.points": (points, "count"),
        "campaign.cpu_per_wall": (trace["campaign_cpu_s"] / campaign_s if campaign_s
                                  else 0.0, "ratio"),
        "campaign.point_s_max": (max(((s["end_ns"] - s["start_ns"]) / 1e9
                                      for s in point_spans), default=0.0), "s"),
        "bench.rows_s": (total_s("bench.result_rows"), "s"),
        "bench.write_s": (total_s("bench.write_csv", "bench.write_sidecar"), "s"),
        "bench.csv_bytes": (os.path.getsize(csv_path), "bytes"),
        "trace.sweep_ratio": (sweep_ratio, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def measure_traced(run: Run) -> dict:
    """--trace 1: pairs of an untraced and a traced sweep.

    Per-layer values come from the first traced sweep, so its call counts
    depend on the seed alone; trace.sweep_ratio is the median over pairs of
    traced over untraced sweep_s.
    """
    pairs: list[tuple[dict, dict]] = []
    while run.time_left_for([a["wall_s"] + b["wall_s"] for a, b in pairs]):
        pairs.append((run.sweep(traced=False), run.sweep(traced=True)))
    ratios = [b["sweep_s"] / a["sweep_s"] for a, b in pairs if a["ok"] and b["ok"]]
    first = pairs[0][1]
    if not first["ok"] or not ratios:
        run.errors.append("traced sweep did not finish")
        return {}
    with open(first["trace_path"], encoding="utf-8") as fh:
        trace = json.load(fh)
    return layer_metrics(trace, first["csv_path"], statistics.median(ratios))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "pdra", "bench.py")):
        print(f"perfbench: no pdra sources under {SRC}", file=sys.stderr)
        return 1

    run = Run(args.workload, args.seed, args.seconds)
    metrics = measure_traced(run) if args.trace else measure(run)
    print(json.dumps(run.report(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
