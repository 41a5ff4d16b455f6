"""Statistical agreement of pdra-bench CSVs: two runs of one grid, or one run
against its closed form.

Run from the repository root:

    python3 tools/agree.py A.csv B.csv
    python3 tools/agree.py BOTH.csv

Two CSVs: rows join on the grid columns (GRID_COLUMNS).  A point that is
missing from either file, or has no simulated rate in either, is unmatched
and left out of the family.  Each joined point prints one Markdown table row:
its label, both simulated rates, z (the rate of A minus that of B over the
pooled standard error), the two-sided p-value, and the verdict of Holm's
step-down test at a family-wise 0.05 over the joined points (`ok` or
`REJECT`).

One CSV, written under ``--mode both``: each point with a simulated rate and
a closed-form value prints both, the Wilson interval of the rate, whether the
closed form lies in it, and z of the rate against the closed form.

A label names the grid columns whose values differ between the printed
points.  The exit status is 1 when Holm rejects a point or a closed form lies
outside its interval, else 0.  Only the standard library is used; the normal
tail is ``math.erfc``.
"""

from __future__ import annotations

import argparse
import csv
import math

# The CSV columns that name a grid point; the linear columns and
# channel_kind follow from them.
GRID_COLUMNS = ("n_ss", "l", "r_roots", "m_antennas", "rho", "n_active", "p_a",
                "population", "alpha_th_db", "snr_db")
FAMILY_ALPHA = 0.05


def two_sample_z(s1: int, n1: int, s2: int, n2: int) -> float:
    """z of the rate s1/n1 minus s2/n2 over the pooled standard error; 0 when
    the pooled rate is 0 or 1."""
    pooled = (s1 + s2) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    return (s1 / n1 - s2 / n2) / se if se else 0.0


def exact_z(s: int, n: int, p: float) -> float:
    """z of the rate s/n against an exact probability p, over sqrt(p(1-p)/n)."""
    se = math.sqrt(p * (1.0 - p) / n)
    if se == 0.0:
        return 0.0 if s / n == p else math.copysign(math.inf, s / n - p)
    return (s / n - p) / se


def p_value(z: float) -> float:
    """Two-sided normal tail probability of z."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def holm(p_values: list[float], alpha: float = FAMILY_ALPHA) -> list[bool]:
    """Which hypotheses Holm's step-down test rejects at family-wise alpha,
    in input order: the i-th smallest p-value (from 0) is rejected while it
    and every smaller one lie at or below alpha / (m - i)."""
    order = sorted(range(len(p_values)), key=p_values.__getitem__)
    rejected = [False] * len(p_values)
    for rank, i in enumerate(order):
        if p_values[i] > alpha / (len(p_values) - rank):
            break
        rejected[i] = True
    return rejected


def read_points(path: str) -> dict[tuple[str, ...], dict[str, str]]:
    """The rows of a pdra-bench CSV keyed by their grid columns."""
    with open(path, newline="") as fh:
        return {tuple(row[c] for c in GRID_COLUMNS): row for row in csv.DictReader(fh)}


def counts(row: dict[str, str]) -> tuple[int, int] | None:
    """Successes and trials of a row, or None when it has no simulated rate."""
    if not row["p_success_sim"]:
        return None
    trials = int(row["trials"])
    return round(float(row["p_success_sim"]) * trials), trials


def labels(keys: list[tuple[str, ...]]) -> list[str]:
    """Each key as name=value over the grid columns that differ between keys."""
    varying = [i for i in range(len(GRID_COLUMNS)) if len({k[i] for k in keys}) > 1]
    return [" ".join(f"{GRID_COLUMNS[i]}={k[i]}" for i in varying) or "all" for k in keys]


def compare(a_path: str, b_path: str) -> int:
    """Print the two-run table; 1 when Holm rejects a point, else 0."""
    a, b = read_points(a_path), read_points(b_path)
    keys = [k for k in a if k in b and counts(a[k]) and counts(b[k])]
    zs = [two_sample_z(*counts(a[k]), *counts(b[k])) for k in keys]
    ps = [p_value(z) for z in zs]
    rejected = holm(ps)
    print("| point | A | B | z | p | Holm |")
    print("| --- | --- | --- | --- | --- | --- |")
    for label, k, z, p, r in zip(labels(keys), keys, zs, ps, rejected):
        (sa, na), (sb, nb) = counts(a[k]), counts(b[k])
        print(f"| {label} | {sa / na:.4f} | {sb / nb:.4f} | {z:+.2f} | {p:.3g} | "
              f"{'REJECT' if r else 'ok'} |")
    unmatched = len(a) + len(b) - 2 * len(keys)
    print(f"{len(keys)} points, {sum(rejected)} rejected (Holm, family-wise "
          f"{FAMILY_ALPHA}); {unmatched} rows unmatched")
    return int(any(rejected))


def against_model(path: str) -> int:
    """Print the rate-against-closed-form table; 1 when a closed form lies
    outside its Wilson interval, else 0."""
    rows = read_points(path)
    keys = [k for k, row in rows.items() if counts(row) and row["p_success_analytic"]]
    print("| point | sim | ci_lo | ci_hi | closed form | in CI | z |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    outside = 0
    for label, k in zip(labels(keys), keys):
        row = rows[k]
        s, n = counts(row)
        model = float(row["p_success_analytic"])
        inside = float(row["ci_lo"]) <= model <= float(row["ci_hi"])
        outside += not inside
        print(f"| {label} | {s / n:.4f} | {float(row['ci_lo']):.4f} | "
              f"{float(row['ci_hi']):.4f} | {model:.4f} | "
              f"{'yes' if inside else 'NO'} | {exact_z(s, n, model):+.2f} |")
    print(f"{len(keys)} points, {outside} with the closed form outside the Wilson interval")
    return int(outside > 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("csv", nargs="+", help="one --mode both CSV, or two CSVs of one grid")
    paths = parser.parse_args(argv).csv
    if len(paths) > 2:
        parser.error("give one or two CSVs")
    return compare(*paths) if len(paths) == 2 else against_model(paths[0])


if __name__ == "__main__":
    raise SystemExit(main())
