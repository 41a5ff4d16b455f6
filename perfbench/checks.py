"""Output checks for one pdra-bench CSV, computed without importing pdra.

Every expected value here comes from this file alone: the grid order from the
workload's axes, the Wilson interval from the success count, and the closed
form from its binomial-theorem version evaluated in exact integer arithmetic.
The checks therefore share no code with the program they judge.

For L=2 and N-1 other active UEs, with o = (R-1)*N_PS other-root patterns,
a = N_SS-2 same-root patterns sharing one given tagged shift and
d = C(N_SS-2, 2) sharing neither, the model's success probability is

    P_MF = sum_{K <= Kcap} C(n, K) o^K (2 (a+d)^(n-K) - d^(n-K)) / N_P^n

(P_S = ((N_P-1)/N_P)^n and P(K) uniform over the N_P-1 non-identical
patterns cancel into the single denominator N_P^n).  For L=1 the bracket is
the binomial CDF of K alone.  Dropping Kcap gives the exact uncapped bound
2 (o+a+d)^n - (o+d)^n over N_P^n, which no correct simulator can exceed;
for L=1 that bound is P_S.
"""

from __future__ import annotations

import csv
import itertools
import math
from functools import lru_cache

N_ZC = 839
Z_95 = 1.959963984540054
# Where the SINR stage almost always passes (R=1, large M) the true success
# probability equals the uncapped bound, so the CSV's 95% ci_lo lies above it
# for about 1 grid point in 40 on a correct simulator.  The bound check uses
# the Wilson lower bound at this z instead, which a correct simulator exceeds
# with chance below 3e-7 per point.
Z_BOUND = 5.0

CSV_COLUMNS = [
    "n_ss", "l", "r_roots", "m_antennas", "rho", "channel_kind",
    "n_active", "p_a", "population",
    "alpha_th_db", "alpha_th_linear", "snr_db", "snr_linear",
    "p_success_sim", "ci_lo", "ci_hi",
    "p_success_analytic", "analytic_note",
    "trials", "seed", "status",
]


def wilson(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval, clipped to [0, 1] and exact at 0 and n."""
    p = successes / trials
    z2 = z * z
    centre = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = (z / (1 + z2 / trials)) * math.sqrt(
        p * (1 - p) / trials + z2 / (4 * trials * trials)
    )
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


def k_cap(alpha_th_db: float, l: int) -> int:
    """Largest K with step * K * alpha <= N_ZC (step 4 for L=2, 1 for L=1)."""
    alpha = 10.0 ** (alpha_th_db / 10.0)
    step = 4 if l == 2 else 1
    cap = int(N_ZC // (step * alpha))
    while step * (cap + 1) * alpha <= N_ZC:
        cap += 1
    while cap > 0 and step * cap * alpha > N_ZC:
        cap -= 1
    return cap


@lru_cache(maxsize=None)
def fixed_n(n: int, l: int, r: int, n_ss: int, cap: int | None) -> float:
    """Success probability with n other active UEs; cap=None is the bound."""
    if l == 2:
        n_ps = math.comb(n_ss, 2)
        o, a, d = (r - 1) * n_ps, n_ss - 2, math.comb(n_ss - 2, 2)
        if cap is None or cap >= n:
            num = 2 * (o + a + d) ** n - (o + d) ** n
        else:
            num = sum(
                math.comb(n, k) * o**k * (2 * (a + d) ** (n - k) - d ** (n - k))
                for k in range(cap + 1)
            )
    else:
        n_ps = n_ss
        o, same = (r - 1) * n_ss, n_ss - 1
        top = n if cap is None else min(cap, n)
        num = sum(math.comb(n, k) * o**k * same ** (n - k) for k in range(top + 1))
    return num / (r * n_ps) ** n


def mixed(p_a: float, population: int, l: int, r: int, n_ss: int,
          cap: int | None) -> float:
    """fixed_n averaged over n ~ Binomial(population - 1, p_a)."""
    big_n = population - 1
    mode = int((big_n + 1) * p_a)
    total = 0.0
    for n in range(big_n + 1):
        log_w = (
            math.log(math.comb(big_n, n))
            + n * math.log(p_a)
            + (big_n - n) * math.log1p(-p_a)
        )
        w = math.exp(log_w)
        total += w * fixed_n(n, l, r, n_ss, cap)
        # past the mode the pmf falls geometrically: the rest is < 1e-16
        if n > mode and w < 1e-18:
            break
    return total


def model_value(point: dict, capped: bool) -> float:
    """Closed form (capped=True) or the uncapped bound for one grid point."""
    cap = k_cap(point["alpha_th_db"], point["l"]) if capped else None
    args = (point["l"], point["r_roots"], point["n_ss"], cap)
    if "n_active" in point:
        return fixed_n(point["n_active"] - 1, *args)
    return mixed(point["p_a"], point["population"], *args)


def expected_grid(axes: dict) -> list[dict]:
    """Grid points in the documented order: n_ss, l, r, M, rho, alpha, snr, activity."""
    if "n_active" in axes:
        activity = [{"n_active": n} for n in axes["n_active"]]
    else:
        activity = [{"p_a": p, "population": axes["population"]} for p in axes["p_a"]]
    points = []
    for n_ss, l, r, m, rho, alpha, snr, act in itertools.product(
        axes["n_ss"], axes["l"], axes["r_roots"], axes["m_antennas"],
        axes["rho"], axes["alpha_th_db"], axes["snr_db"], activity,
    ):
        point = {"n_ss": n_ss, "l": l, "r_roots": r, "m_antennas": m, "rho": rho,
                 "alpha_th_db": alpha, "snr_db": snr}
        point.update(act)
        points.append(point)
    return points


def _close(a: float, b: float, rel: float = 2e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def check_rows(rows: list[dict], header: list[str], axes: dict, trials: int,
               seed: int, analytic: bool) -> tuple[list[str], list[int | None]]:
    """Errors in one sweep's rows, and each row's success count.

    A row whose status is not ok is a failed grid point, not a check error:
    its success count is None and the caller counts it as failed.
    """
    errors: list[str] = []
    if header != CSV_COLUMNS:
        return [f"CSV header {header} is not the column contract"], []
    grid = expected_grid(axes)
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for {len(grid)} grid points"], []
    successes: list[int | None] = []
    for i, (row, point) in enumerate(zip(rows, grid)):
        where = f"row {i}"
        if row["status"] != "ok":
            successes.append(None)
            continue
        for key, want in point.items():
            if float(row[key]) != float(want):
                errors.append(f"{where}: {key}={row[key]} out of grid order, want {want}")
        kind = "iid" if point["rho"] == 0.0 else "correlated"
        if row["channel_kind"] != kind:
            errors.append(f"{where}: channel_kind {row['channel_kind']!r}, want {kind!r}")
        if int(row["trials"]) != trials or int(row["seed"]) != seed:
            errors.append(f"{where}: trials/seed {row['trials']}/{row['seed']}, "
                          f"want {trials}/{seed}")
            successes.append(None)
            continue

        p_sim = float(row["p_success_sim"])
        s = round(p_sim * trials)
        successes.append(s)
        if float(f"{s / trials:.10g}") != p_sim:
            errors.append(f"{where}: p_success_sim {row['p_success_sim']} is not "
                          f"a count over {trials} trials")
            continue
        lo, hi = wilson(s, trials)
        if not (_close(float(row["ci_lo"]), lo) and _close(float(row["ci_hi"]), hi)):
            errors.append(f"{where}: Wilson [{row['ci_lo']}, {row['ci_hi']}] for "
                          f"{s}/{trials}, recomputed [{lo:.10g}, {hi:.10g}]")

        bound = model_value(point, capped=False)
        strict_lo = wilson(s, trials, Z_BOUND)[0]
        if strict_lo > bound:
            errors.append(f"{where}: {s}/{trials} successes lie above the uncapped "
                          f"bound {bound:.10g} (z={Z_BOUND} lower {strict_lo:.10g})")

        if analytic:
            want = model_value(point, capped=True)
            got = row["p_success_analytic"]
            if got == "" or not _close(float(got), want, rel=1e-9):
                errors.append(f"{where}: p_success_analytic {got!r}, "
                              f"closed form {want:.10g}")
            note = "single-sequence-baseline" if point["l"] == 1 else ""
            if row["analytic_note"] != note:
                errors.append(f"{where}: analytic_note {row['analytic_note']!r}")
        elif row["p_success_analytic"] != "":
            errors.append(f"{where}: p_success_analytic set under --mode simulate")
    return errors, successes


def check_csv(path: str, axes: dict, trials: int, seed: int,
              analytic: bool) -> tuple[list[str], list[int | None]]:
    """check_rows on a CSV file; a missing or unreadable file is one error."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            header = list(reader.fieldnames or [])
    except OSError as exc:
        return [f"cannot read {path}: {exc}"], []
    try:
        return check_rows(rows, header, axes, trials, seed, analytic)
    except (KeyError, ValueError) as exc:
        return [f"malformed CSV {path}: {exc!r}"], []
