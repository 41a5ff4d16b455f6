"""Alternating benchmark pairs of a parent commit against the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 --seconds 55 \
        --workload fig6-corr:901 --workload fig5-model:951 \
        --claim fig6-corr:sweep_s --change "what the change does" \
        --out BENCH_13.json

The parent's files come from ``git archive PARENT`` unpacked into a fresh
temporary directory.  Each pair runs ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in the parent's tree and once in the
working tree, the parent first in odd pairs and the change first in even
pairs.  ``--workload W:SEED`` gives pair i the seed SEED + i, the same on both
sides.  The end-to-end metrics and whether lower or higher is better are
read from BENCHMARK.json.

The output has the layout of the BENCH_<n>.json files: per workload and
metric, the medians and quartiles of both sides, every run, and the number
of pairs in which the change was better.  Each metric also gets a
no-regression status against its ``bound`` in BENCHMARK.json, a share of the
parent's median: ``worse`` when the change's median is worse than the
parent's by more than the bound, ``unresolved`` when the parent's
interquartile distance over its median exceeds the bound (unless every change
run beats every parent run), else ``within``.  The top-level
``no_regression`` is true when every metric of every workload is ``within``.
With ``--claim W:METRIC`` it also records whether the change won at least 9
in 10 of the pairs and moved the median by more than the parent's
interquartile distance.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unpack_parent(rev: str, dest: str) -> str:
    """The files of commit rev, from git archive, unpacked under dest."""
    tree = os.path.join(dest, "parent")
    os.makedirs(tree)
    archive = os.path.join(dest, "parent.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return tree


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree; returns its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: dict[str, list[dict]], better: dict[str, str],
              bounds: dict[str, float]) -> dict:
    """Per metric: both sides' medians, quartiles and runs, pairs won, and
    the no-regression status."""
    out = {}
    for name, direction in better.items():
        side = {k: [r["metrics"][name]["value"] for r in runs[k]] for k in runs}
        sign = 1.0 if direction == "lower" else -1.0
        won = sum(sign * (c - p) < 0 for p, c in zip(side["parent"], side["change"]))
        entry = {}
        for k in ("parent", "change"):
            q1, med, q3 = quartiles(side[k])
            entry.update({f"{k}_median": round(med, 4), f"{k}_q1": round(q1, 4),
                          f"{k}_q3": round(q3, 4)})
        entry.update(change_better_pairs=won, pairs=len(side["parent"]),
                     parent_runs=[round(v, 4) for v in side["parent"]],
                     change_runs=[round(v, 4) for v in side["change"]])
        entry["regression"] = regression(side["parent"], side["change"], sign,
                                         bounds[name])
        out[name] = entry
    return out


def regression(parent: list[float], change: list[float], sign: float,
               bound: float) -> str:
    """within, worse or unresolved (module docstring); sign is 1 when lower
    is better and -1 when higher is."""
    if all(sign * (c - p) < 0 for c in change for p in parent):
        return "within"
    q1, med, q3 = quartiles(parent)
    if q3 - q1 > bound * abs(med):
        return "unresolved"
    worse = sign * (statistics.median(change) - med) > bound * abs(med)
    return "worse" if worse else "within"


def verdict(entry: dict, direction: str) -> dict:
    """At least 9 of 10 pairs won, and the medians further apart than the
    parent's interquartile distance, in the better direction."""
    gain = entry["parent_median"] - entry["change_median"]
    if direction != "lower":
        gain = -gain
    iqr = entry["parent_q3"] - entry["parent_q1"]
    pairs_ok = entry["change_better_pairs"] * 10 >= 9 * entry["pairs"]
    return {"median_gain": round(gain, 4), "parent_iqr": round(iqr, 4),
            "pairs_won": f"{entry['change_better_pairs']} of {entry['pairs']}",
            "holds": bool(pairs_ok and gain > iqr)}


def parse_pair(text: str, kind) -> tuple[str, object]:
    name, _, value = text.partition(":")
    if not value:
        raise argparse.ArgumentTypeError(f"expected NAME:VALUE, got {text!r}")
    return name, kind(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--workload", action="append", required=True,
                        type=lambda t: parse_pair(t, int), metavar="NAME:SEED",
                        help="workload and the seed of its first pair; repeatable")
    parser.add_argument("--claim", type=lambda t: parse_pair(t, str),
                        metavar="WORKLOAD:METRIC")
    parser.add_argument("--change", default="", help="one line on what changed")
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seconds <= 0:
        parser.error("--pairs must be >= 2 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    # checked before any run, so a bad flag costs no sweep
    names = [name for name, _ in args.workload]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        parser.error(f"--workload names {repeated} more than once")
    if args.claim and args.claim[0] not in names:
        parser.error(f"--claim workload {args.claim[0]!r} is not given by --workload")
    if args.claim and args.claim[1] not in better:
        parser.error(f"--claim metric {args.claim[1]!r} is not one of {sorted(better)}")
    parent_rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    workloads = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": unpack_parent(args.parent, tmp), "change": ROOT}
        for name, first_seed in args.workload:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            seeds = [first_seed + i for i in range(args.pairs)]
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(trees[side], name, seed, args.seconds))
                    m = runs[side][-1]["metrics"]
                    print(f"{name} pair {i + 1} seed {seed} {side}: "
                          + " ".join(f"{k}={m[k]['value']:.4f}" for k in better),
                          file=sys.stderr)
            every = runs["parent"] + runs["change"]
            workloads[name] = {
                "correct": all(r["correct"] for r in every),
                "failed": sum(r["failed"] for r in every),
                "attempted": sum(r["attempted"] for r in every),
                "seeds": seeds,
                "metrics": summarize(runs, better, bounds),
            }

    result = {
        "change": args.change,
        "host": {"cpu_count": os.cpu_count()},
        "benchmark": {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
            "seconds": {name: args.seconds for name in workloads},
            "pairs": {name: args.pairs for name in workloads},
            "seeds": {name: w["seeds"] for name, w in workloads.items()},
            "order": "parent first in odd pairs, change first in even pairs",
            "parent": f"{parent_rev} (git archive of the parent commit)",
        },
        "no_regression": all(m["regression"] == "within" for w in workloads.values()
                             for m in w["metrics"].values()),
        "workloads": workloads,
    }
    if args.claim:
        workload, metric = args.claim
        entry = workloads[workload]["metrics"][metric]
        result["claim"] = {"metric": metric, "workload": workload,
                           **verdict(entry, better[metric])}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"no_regression": result["no_regression"], **result.get("claim", {})}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
