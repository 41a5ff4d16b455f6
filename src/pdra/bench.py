"""Command-line sweep harness: presets, config files, CSV and sidecar output.

One invocation runs one experiment: a parameter grid is expanded in a fixed
documented order, each point is evaluated analytically and/or by Monte Carlo,
and the results land in a single CSV plus a JSON provenance sidecar.  Rows are
written in grid order regardless of worker scheduling, so a rerun with the
same master seed is byte-identical at any thread count.  The sidecar carries
the run timestamp so the CSV itself stays reproducible.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import itertools
import json
import math
import os
import platform
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import (
    db_to_linear,
    p_no_pattern_collision,
    p_no_pattern_collision_binomial,
)
from .geometry import drop_ue
from .simulate import (
    CELL_LAYOUT,
    ScenarioConfig,
    SweepResult,
    analytic_reference,
    build_scenario,
    no_closed_form_reason,
    run_campaign,
)

MODES = ("analytic", "simulate", "both")
METRICS = ("success", "collision")

# CSV column order is part of the public contract; plots read these names.
CSV_COLUMNS = [
    "n_ss", "l", "r_roots", "m_antennas", "rho", "channel_kind",
    "n_active", "p_a", "population",
    "alpha_th_db", "alpha_th_linear", "snr_db", "snr_linear",
    "p_success_sim", "ci_lo", "ci_hi",
    "p_success_analytic", "analytic_note",
    "trials", "seed", "status",
]


class SchemaError(ValueError):
    """A config key or value violates the experiment schema."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated description of one sweep: grid axes plus run controls."""

    mode: str = "both"
    metric: str = "success"
    preset: str | None = None
    n_zc: int = 839
    n_ss: tuple[int, ...] = (32,)
    l: tuple[int, ...] = (2,)
    r_roots: tuple[int, ...] = (1, 2, 3, 4)
    m_antennas: tuple[int, ...] = (128,)
    rho: tuple[float, ...] = (0.0,)
    alpha_th_db: tuple[float, ...] = (5.0,)
    snr_db: tuple[float, ...] = (-10.0,)
    n_active: tuple[int, ...] | None = (10,)
    p_a: tuple[float, ...] | None = None
    population: int = 10_000
    trials: int = 20_000
    master_seed: int = 1
    threads: int = 1
    out: str = "pdra-results.csv"

    def validate(self) -> None:
        if self.mode not in MODES:
            raise SchemaError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.metric not in METRICS:
            raise SchemaError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.n_zc < 3 or self.n_zc % 2 == 0:
            raise SchemaError(f"n_zc must be an odd integer >= 3, got {self.n_zc}")
        if (self.n_active is None) == (self.p_a is None):
            raise SchemaError(
                "exactly one of n_active (fixed count) and p_a (random activity) "
                "must be set; they are mutually exclusive"
            )
        if self.metric == "collision" and self.mode != "analytic":
            raise SchemaError(
                "metric=collision is closed-form only; use mode=analytic"
            )
        if self.metric == "success" and self.mode in ("analytic", "both"):
            bad = sorted(set(self.l) - {1, 2})
            if bad:
                raise SchemaError(
                    f"analytic model defined only for L in {{1, 2}}; grid has L={bad}"
                )
        for name in ("n_ss", "l", "r_roots", "m_antennas", "rho",
                     "alpha_th_db", "snr_db"):
            if len(getattr(self, name)) == 0:
                raise SchemaError(f"grid axis {name} is empty")
        if self.n_active is not None and len(self.n_active) == 0:
            raise SchemaError("grid axis n_active is empty")
        if self.p_a is not None and len(self.p_a) == 0:
            raise SchemaError("grid axis p_a is empty")
        bad = sorted(n for n in self.n_active or () if n < 1)
        if bad:
            raise SchemaError(f"n_active entries must be >= 1, got {bad}")
        bad = sorted(p for p in self.p_a or () if not 0.0 <= p <= 1.0)
        if bad:
            raise SchemaError(f"p_a entries must lie in [0, 1], got {bad}")
        if self.trials < 1:
            raise SchemaError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 1:
            raise SchemaError(f"threads must be >= 1, got {self.threads}")
        if self.population < 1:
            raise SchemaError(f"population must be >= 1, got {self.population}")
        if not self.out:
            raise SchemaError("out path must be non-empty")

    def activity_axis(self) -> list[dict]:
        """Activity leg of the grid product, as override dicts."""
        if self.n_active is not None:
            return [{"n_active": n} for n in self.n_active]
        return [{"p_a": p, "population": self.population} for p in self.p_a]


# Preset grids: each reproduces one published operating point of the scheme.
# The SNR defaults are calibration choices of this artifact (the comparisons
# they feed are threshold-sensitive); see --help and the README.
PRESETS: dict[str, dict] = {
    # Fixed activity, i.i.d. fading: analytic curve vs simulation across M.
    "fig2": dict(
        mode="both", metric="success",
        n_ss=(32,), l=(2,), r_roots=(1, 2, 3, 4), m_antennas=(128, 256, 512),
        rho=(0.0,), alpha_th_db=(5.0,), snr_db=(-12.0,),
        n_active=(10,), p_a=None, trials=20_000,
    ),
    # Random activity: pattern scheme vs single-sequence baseline, two subset sizes.
    "fig3": dict(
        mode="both", metric="success",
        n_ss=(32, 64), l=(1, 2), r_roots=(1, 2, 3, 4), m_antennas=(128,),
        rho=(0.0,), alpha_th_db=(5.0,), snr_db=(-10.0,),
        n_active=None, p_a=(0.001,), population=10_000, trials=20_000,
    ),
    # Collision-free probability alone, closed form, L up to 3.
    "fig4": dict(
        mode="analytic", metric="collision",
        n_ss=(32,), l=(1, 2, 3), r_roots=(2,), m_antennas=(128,),
        rho=(0.0,), alpha_th_db=(5.0,), snr_db=(0.0,),
        n_active=tuple(range(1, 31)), p_a=None,
    ),
    # fig3 at a higher activity factor.
    "fig5": dict(
        mode="both", metric="success",
        n_ss=(32, 64), l=(1, 2), r_roots=(1, 2, 3, 4), m_antennas=(128,),
        rho=(0.0,), alpha_th_db=(5.0,), snr_db=(-10.0,),
        n_active=None, p_a=(0.0015,), population=10_000, trials=20_000,
    ),
    # Spatially correlated fading vs i.i.d., two array sizes.
    "fig6": dict(
        mode="simulate", metric="success",
        n_ss=(32,), l=(2,), r_roots=(1, 2, 3, 4), m_antennas=(128, 256),
        rho=(0.0, 0.7), alpha_th_db=(5.0,), snr_db=(-12.0,),
        n_active=None, p_a=(0.001,), population=10_000, trials=20_000,
    ),
}

# A config file may set any spec field; these list fields are the grid axes.
_AXIS_KEYS = {"n_ss", "l", "r_roots", "m_antennas", "rho", "alpha_th_db",
              "snr_db", "n_active", "p_a"}
_INT_AXES = {"n_ss", "l", "r_roots", "m_antennas", "n_active"}


def _as_tuple(key: str, value) -> tuple:
    """Normalize a scalar-or-list config value to a homogeneous tuple."""
    items = value if isinstance(value, (list, tuple)) else [value]
    cast = int if key in _INT_AXES else float
    try:
        return tuple(cast(v) for v in items)
    except (TypeError, ValueError):
        raise SchemaError(f"key {key!r} needs {cast.__name__} values, got {value!r}")


def parse_config(path: str) -> dict:
    """Read a flat YAML mapping of spec fields; unknown keys are rejected."""
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise SchemaError(f"config {path} is not valid YAML: {exc}") from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise SchemaError(f"config must be a flat key-value mapping, got {type(raw).__name__}")
    known = {f.name for f in dataclasses.fields(ExperimentSpec)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise SchemaError(
            f"unknown config keys {unknown}; known keys: {sorted(known)}"
        )
    fields: dict = {}
    for key, value in raw.items():
        if key in _AXIS_KEYS:
            fields[key] = None if value is None else _as_tuple(key, value)
        elif key in ("mode", "metric", "out", "preset"):
            fields[key] = str(value)
        else:
            try:
                fields[key] = int(value)
            except (TypeError, ValueError):
                raise SchemaError(f"key {key!r} needs an integer, got {value!r}")
    # A config that switches to random activity must displace the fixed-count
    # default (and vice versa) without demanding both keys be spelled out.
    if "p_a" in fields and fields["p_a"] is not None and "n_active" not in fields:
        fields["n_active"] = None
    if "n_active" in fields and fields["n_active"] is not None and "p_a" not in fields:
        fields["p_a"] = None
    return fields


def build_spec(
    preset: str | None,
    config_fields: dict | None = None,
    flag_fields: dict | None = None,
) -> ExperimentSpec:
    """Layer preset, config file, and flags (later wins), then validate."""
    fields: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise SchemaError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)} or 'topology'"
            )
        fields.update(PRESETS[preset])
        fields["preset"] = preset
    for layer in (config_fields or {}), (flag_fields or {}):
        for key, value in layer.items():
            if value is not None or key in ("n_active", "p_a"):
                fields[key] = value
    spec = ExperimentSpec(**fields)
    spec.validate()
    return spec


def expand_grid(spec: ExperimentSpec) -> list[dict]:
    """Grid points in output order: n_ss, l, r, M, rho, alpha, snr, activity."""
    points = []
    for n_ss, l, r, m, rho, alpha, snr, act in itertools.product(
        spec.n_ss, spec.l, spec.r_roots, spec.m_antennas, spec.rho,
        spec.alpha_th_db, spec.snr_db, spec.activity_axis(),
    ):
        point = {
            "n_ss": n_ss, "l": l, "r_roots": r, "m_antennas": m,
            "rho": rho, "channel_kind": "iid" if rho == 0.0 else "correlated",
            "alpha_th_db": alpha, "snr_db": snr,
        }
        point.update(act)
        points.append(point)
    return points


def _point_error(
    spec: ExperimentSpec, point: dict
) -> tuple[ScenarioConfig | None, str | None]:
    """Build one grid point: (scenario, None), or (None, error) when it cannot run.

    The collision metric needs no scenario, only a nonempty pattern pool.
    """
    try:
        if spec.metric == "collision":
            n_p = point["r_roots"] * math.comb(point["n_ss"], point["l"])
            if n_p < 1:
                raise ValueError(
                    f"empty pattern pool for n_ss={point['n_ss']}, l={point['l']}"
                )
            return None, None
        return build_scenario(point, spec.n_zc, spec.trials, spec.master_seed), None
    except ValueError as exc:
        return None, str(exc)


def _analytic_value(
    spec: ExperimentSpec, point: dict, config: ScenarioConfig | None
) -> tuple[float | None, str]:
    """Closed-form column for one point, with a note naming its flavor."""
    if spec.metric == "collision":
        n_p = point["r_roots"] * math.comb(point["n_ss"], point["l"])
        if "n_active" in point:
            return p_no_pattern_collision(point["n_active"], n_p), "collision-free-only"
        return (
            p_no_pattern_collision_binomial(point["p_a"], point["population"], n_p),
            "collision-free-only",
        )
    value = analytic_reference(config)
    if value is None:
        return None, f"no-closed-form: {no_closed_form_reason(config)}"
    return value, "single-sequence-baseline" if point["l"] == 1 else ""


def _fmt(value) -> str:
    """Deterministic cell formatting; empty string for missing values."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _result_rows(
    spec: ExperimentSpec,
    points: list[dict],
    built: list[tuple[ScenarioConfig | None, str | None]],
    sim_results: dict[int, SweepResult] | None,
) -> list[dict]:
    rows = []
    for idx, (point, (config, error)) in enumerate(zip(points, built)):
        row = {col: "" for col in CSV_COLUMNS}
        row.update({k: _fmt(v) for k, v in point.items()})
        row["alpha_th_linear"] = _fmt(db_to_linear(point["alpha_th_db"]))
        row["snr_linear"] = _fmt(db_to_linear(point["snr_db"]))
        row["seed"] = str(spec.master_seed)
        row["trials"] = "0"
        if error is not None:
            row["status"] = f"error: {error}"
            rows.append(row)
            continue
        status = "ok"
        if spec.mode in ("analytic", "both"):
            value, note = _analytic_value(spec, point, config)
            row["p_success_analytic"] = _fmt(value)
            row["analytic_note"] = note
        if sim_results is not None:
            res = sim_results[idx]
            status = res.status
            if res.status == "ok":
                row["p_success_sim"] = _fmt(res.empirical_p_success)
                row["ci_lo"] = _fmt(res.wilson_ci_95[0])
                row["ci_hi"] = _fmt(res.wilson_ci_95[1])
            row["trials"] = str(res.trials_used)
        row["status"] = status
        rows.append(row)
    return rows


def write_csv(path: str, rows: list[dict], columns: list[str]) -> None:
    """RFC-4180 CSV with a fixed header; rows already formatted as strings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, quoting=csv.QUOTE_MINIMAL)
        writer.writeheader()
        writer.writerows(rows)


def write_sidecar(csv_path: str, spec: ExperimentSpec, n_points: int) -> str:
    """JSON provenance record next to the CSV; holds the run timestamp and
    the environment: library versions, CPU count and BLAS threads."""
    from . import __version__

    record = {
        "artifact": "pdra-bench",
        "version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "n_grid_points": n_points,
        "spec": dataclasses.asdict(spec),
        "environment": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    sidecar = csv_path + ".meta.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar


def run_experiment(spec: ExperimentSpec, echo=print) -> int:
    """Expand, evaluate, and export one sweep; returns the process exit code."""
    points = expand_grid(spec)
    built = [_point_error(spec, p) for p in points]
    # keyed by grid index: the index is the point's RNG substream id
    configs = {idx: cfg for idx, (cfg, _) in enumerate(built) if cfg is not None}
    sim_results = None
    if spec.mode in ("simulate", "both") and configs:
        echo(
            f"running {len(points)} grid points x {spec.trials} trials "
            f"(seed={spec.master_seed}, threads={spec.threads})"
        )
        sim_results = run_campaign(configs, threads=spec.threads)
    rows = _result_rows(spec, points, built, sim_results)
    write_csv(spec.out, rows, CSV_COLUMNS)
    sidecar = write_sidecar(spec.out, spec, len(points))
    failed = [r for r in rows if r["status"] != "ok"]
    for row in failed:
        echo(f"point failed: {row['status']}")
    echo(f"wrote {spec.out} ({len(rows)} rows) and {sidecar}")
    return 1 if failed else 0


def run_topology(out: str, master_seed: int, echo=print) -> int:
    """Export the cell grid of the correlated trials and one seeded UE drop as CSV."""
    layout = CELL_LAYOUT
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(master_seed)))
    ue = drop_ue(layout, rng)
    columns = ["kind", "index", "x_m", "y_m", "cell_radius_m", "min_dist_m"]
    rows = [
        {
            "kind": "cell", "index": str(i),
            "x_m": _fmt(float(x)), "y_m": _fmt(float(y)),
            "cell_radius_m": _fmt(layout.radius_m), "min_dist_m": "",
        }
        for i, (x, y) in enumerate(layout.cell_centers())
    ]
    rows.append({
        "kind": "ue", "index": "0",
        "x_m": _fmt(ue.x_m), "y_m": _fmt(ue.y_m),
        "cell_radius_m": "", "min_dist_m": _fmt(layout.min_dist_m),
    })
    write_csv(out, rows, columns)
    echo(f"wrote {out} ({layout.n_cells} cells + 1 UE)")
    return 0


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise SchemaError(f"environment variable {name} must be an integer, got {raw!r}")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdra-bench",
        description=(
            "Run pattern-based random access sweeps and export CSV results. "
            "Precedence per field: flag > environment > config file > preset > "
            "built-in default. Defaults: mode=both, metric=success, N_ZC=839, "
            "N_SS=[32], L=[2], R=[1..4], M=[128], rho=[0], alpha_Th=[5 dB], "
            "SNR=[-10 dB], N=[10] fixed, population=10000, trials=20000, "
            "seed=1, threads=1, out=pdra-results.csv. Preset SNR defaults: "
            "fig2/fig6 -12 dB, fig3/fig5 -10 dB (calibration choices; "
            "threshold comparisons are SNR-sensitive). Only PDRA_SEED and "
            "PDRA_THREADS are honored from the environment."
        ),
    )
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS) + ["topology"],
        help="named experiment grid; fields remain overridable via --config/flags",
    )
    parser.add_argument("--config", metavar="PATH",
                        help="flat YAML mapping of spec fields (lists allowed)")
    parser.add_argument("--mode", choices=MODES,
                        help="analytic curves, Monte Carlo, or both")
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument("--seed", type=int, help="master seed for all points")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    parser.add_argument("--threads", type=int, help="worker processes for grid points")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        seed = args.seed if args.seed is not None else _env_int("PDRA_SEED")
        if args.preset == "topology":
            return run_topology(args.out or "pdra-topology.csv",
                                1 if seed is None else seed)
        config_fields = parse_config(args.config) if args.config else {}
        flag_fields = {
            "mode": args.mode,
            "out": args.out,
            "trials": args.trials,
            "master_seed": seed,
            "threads": (
                args.threads if args.threads is not None else _env_int("PDRA_THREADS")
            ),
        }
        spec = build_spec(args.preset, config_fields, flag_fields)
        return run_experiment(spec)
    except ValueError as exc:  # SchemaError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
