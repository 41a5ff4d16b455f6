"""Byte-identity gate: fixed pdra.bench runs of a parent commit against the
working tree.

Run from the repository root:

    python3 tools/cmp_presets.py --parent HEAD

The parent's files come from ``git archive PARENT``, unpacked by
``bench_pairs.unpack_parent``.  Each config of CONFIGS runs ``python3 -m
pdra.bench ARGS --out DIR/out.csv`` once in the parent's tree and once in the
working tree, each with its own ``src`` on PYTHONPATH.  The two runs must give
the same exit code, the same stdout once the output path is masked, and the
same CSV bytes.  One line prints per config; the exit status is 1 when any
config differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

from bench_pairs import ROOT, unpack_parent

SEEDED = ["--trials", "2000", "--seed", "7"]
CONFIGS = [
    ["--preset", "fig4"],
    *(["--preset", fig, *SEEDED, "--threads", threads]
      for fig in ("fig2", "fig3", "fig5", "fig6") for threads in ("1", "2")),
    ["--preset", "fig5", "--mode", "both", "--trials", "100", "--seed", "5"],
    ["--preset", "fig6", "--mode", "simulate", "--trials", "60", "--seed", "5"],
    ["--preset", "fig3", "--mode", "analytic"],
    ["--preset", "fig2", "--mode", "collision"],
    ["--preset", "topology", "--seed", "4"],
]
FIELDS = ("exit code", "stdout", "CSV")


def run_config(tree: str, args: list[str], out_dir: str) -> tuple[int, str, bytes]:
    """Exit code, stdout with the output path masked, and CSV bytes (empty
    when none is written) of one pdra.bench run in tree."""
    out = os.path.join(out_dir, "out.csv")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "pdra.bench", *args, "--out", out],
                          cwd=tree, env=env, capture_output=True, text=True)
    csv = b""
    if os.path.exists(out):
        with open(out, "rb") as fh:
            csv = fh.read()
    return proc.returncode, proc.stdout.replace(out, "<out>"), csv


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    args = parser.parse_args(argv)

    differing = 0
    with tempfile.TemporaryDirectory(prefix="cmp-presets-") as tmp:
        trees = {"parent": unpack_parent(args.parent, tmp), "change": ROOT}
        for i, config in enumerate(CONFIGS):
            results = []
            for side, tree in trees.items():
                out_dir = os.path.join(tmp, f"{side}-{i}")
                os.makedirs(out_dir)
                results.append(run_config(tree, config, out_dir))
            diff = [field for field, p, c in zip(FIELDS, *results) if p != c]
            differing += bool(diff)
            verdict = f"differ ({', '.join(diff)})" if diff else "same"
            print(f"{verdict}: {' '.join(config)} (exit {results[0][0]})", flush=True)
    print(f"{differing} of {len(CONFIGS)} configs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
