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
import os
import platform
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import (
    CLOSED_FORM_L,
    db_to_linear,
    no_closed_form_reason,
    p_no_pattern_collision,
)
from .geometry import CELL_RADIUS_M, MIN_DIST_M, cell_centers, drop_positions
from .simulate import (
    ScenarioConfig,
    SweepResult,
    analytic_reference,
    build_scenario,
    run_campaign,
)
from .zc import n_zc_error

# collision: the closed-form collision-free probability alone (fig4).
MODES = ("analytic", "simulate", "both", "collision")

# CSV column order is part of the public contract; plots read these names.
CSV_COLUMNS = [
    "n_ss", "l", "r_roots", "m_antennas", "rho", "channel_kind",
    "n_active", "p_a", "population",
    "alpha_th_db", "alpha_th_linear", "snr_db", "snr_linear",
    "p_success_sim", "ci_lo", "ci_hi",
    "p_success_analytic", "analytic_note",
    "trials", "seed", "status",
]
# The JSON provenance record of a CSV is written to its path plus this suffix.
SIDECAR_SUFFIX = ".meta.json"


# The grid axes in expansion order, first outermost, each with the type of its
# entries.  The last two are the activity leg: a spec sets exactly one of
# n_active (a fixed count of active UEs) and p_a (random activity).
GRID_AXES = {
    "n_ss": int, "l": int, "r_roots": int, "m_antennas": int,
    "rho": float, "alpha_th_db": float, "snr_db": float,
    "n_active": int, "p_a": float,
}
ACTIVITY_LEGS = tuple(GRID_AXES)[-2:]


class SchemaError(ValueError):
    """A config key or value violates the experiment schema."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: grid axes plus run controls, checked when built."""

    mode: str = "both"
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

    def __post_init__(self):
        # equality, not hashing: an unhashable preset is refused, not a TypeError
        if self.preset not in (None, *PRESETS):
            raise SchemaError(
                f"unknown preset {self.preset!r}; choose from {sorted(PRESETS)} or 'topology'"
            )
        # Each config key's field holds its value cast as parse_config casts
        # it; None leaves an activity leg off.
        for name in _CONFIG_TYPES:
            value = getattr(self, name)
            if value is not None or name not in ACTIVITY_LEGS:
                object.__setattr__(self, name, _cast_field(name, value))
        if self.mode not in MODES:
            raise SchemaError(f"mode must be one of {MODES}, got {self.mode!r}")
        if reason := n_zc_error(self.n_zc):
            raise SchemaError(reason)
        if (self.n_active is None) == (self.p_a is None):
            raise SchemaError(
                "exactly one of n_active (fixed count) and p_a (random activity) "
                "must be set; they are mutually exclusive"
            )
        if self.mode in ("analytic", "both"):
            bad = sorted(set(self.l) - set(CLOSED_FORM_L))
            if bad:
                raise SchemaError(f"analytic model defined only for L in "
                                  f"{set(CLOSED_FORM_L)}; grid has L={bad}")
        bad = sorted(n for n in self.n_active or () if n < 1)
        if bad:
            raise SchemaError(f"n_active entries must be >= 1, got {bad}")
        bad = sorted(p for p in self.p_a or () if not 0.0 <= p <= 1.0)
        if bad:
            raise SchemaError(f"p_a entries must lie in [0, 1], got {bad}")
        for name, low in ("trials", 1), ("master_seed", 0), ("threads", 1), ("population", 1):
            if getattr(self, name) < low:
                raise SchemaError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not self.out:
            raise SchemaError("out path must be non-empty")


# Preset grids: each reproduces one published operating point of the scheme.
# The SNR defaults are calibration choices of this artifact (the comparisons
# they feed are threshold-sensitive); see --help and the README.
PRESETS: dict[str, dict] = {
    # Fixed activity, i.i.d. fading: analytic curve vs simulation across M.
    "fig2": dict(
        mode="both",
        n_ss=(32,), l=(2,), r_roots=(1, 2, 3, 4), m_antennas=(128, 256, 512),
        rho=(0.0,), alpha_th_db=(5.0,), snr_db=(-12.0,),
        n_active=(10,), p_a=None, trials=20_000,
    ),
    # Random activity: pattern scheme vs single-sequence baseline, two subset sizes.
    "fig3": dict(
        mode="both",
        n_ss=(32, 64), l=(1, 2), r_roots=(1, 2, 3, 4), m_antennas=(128,),
        rho=(0.0,), alpha_th_db=(5.0,), snr_db=(-10.0,),
        n_active=None, p_a=(0.001,), population=10_000, trials=20_000,
    ),
    # Collision-free probability alone, closed form, L up to 3.
    "fig4": dict(
        mode="collision",
        n_ss=(32,), l=(1, 2, 3), r_roots=(2,), m_antennas=(128,),
        rho=(0.0,), alpha_th_db=(5.0,), snr_db=(0.0,),
        n_active=tuple(range(1, 31)), p_a=None,
    ),
    # fig3 at a higher activity factor.
    "fig5": dict(
        mode="both",
        n_ss=(32, 64), l=(1, 2), r_roots=(1, 2, 3, 4), m_antennas=(128,),
        rho=(0.0,), alpha_th_db=(5.0,), snr_db=(-10.0,),
        n_active=None, p_a=(0.0015,), population=10_000, trials=20_000,
    ),
    # Spatially correlated fading vs i.i.d., two array sizes.
    "fig6": dict(
        mode="simulate",
        n_ss=(32,), l=(2,), r_roots=(1, 2, 3, 4), m_antennas=(128, 256),
        rho=(0.0, 0.7), alpha_th_db=(5.0,), snr_db=(-12.0,),
        n_active=None, p_a=(0.001,), population=10_000, trials=20_000,
    ),
}


def _as_int(key: str, value) -> int:
    """An integral number as int; bools and fractions are rejected, not cast."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SchemaError(f"key {key!r} needs an integer, got {value!r}")


def _as_float(key: str, value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise SchemaError(f"key {key!r} needs a number, got {value!r}")


def _as_str(key: str, value) -> str:
    if isinstance(value, str):
        return value
    raise SchemaError(f"key {key!r} needs a string, got {value!r}")


_CASTS = {int: _as_int, float: _as_float, str: _as_str}

# Every spec field but preset is a config key; only --preset picks a preset.
_CONFIG_TYPES = {
    f.name: GRID_AXES.get(f.name) or type(f.default)
    for f in dataclasses.fields(ExperimentSpec) if f.name != "preset"
}


def _cast_field(name: str, value):
    """A config key's value cast to its field's type: a grid axis is a
    nonempty tuple or list, cast entry by entry to a tuple."""
    cast = _CASTS[_CONFIG_TYPES[name]]
    if name not in GRID_AXES:
        return cast(name, value)
    if not isinstance(value, (tuple, list)):
        raise SchemaError(f"grid axis {name} needs a tuple or list, got {value!r}")
    if not value:
        raise SchemaError(f"grid axis {name} is empty")
    return tuple(cast(name, v) for v in value)


def parse_config(path: str) -> dict:
    """Read a flat YAML mapping of spec fields; unknown and repeated keys are
    rejected."""
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            mapping = super().construct_mapping(node, deep)
            keys = [self.construct_object(key, deep) for key, _ in node.value]
            repeated = sorted({key for key in keys if keys.count(key) > 1}, key=str)
            if repeated:
                raise SchemaError(f"repeated config keys {repeated}")
            return mapping

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=UniqueKeyLoader)
        except yaml.YAMLError as exc:
            raise SchemaError(f"config {path} is not valid YAML: {exc}") from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise SchemaError(f"config must be a flat key-value mapping, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_CONFIG_TYPES), key=str)
    if unknown:
        raise SchemaError(
            f"unknown config keys {unknown}; known keys: {sorted(_CONFIG_TYPES)}"
        )
    fields: dict = {}
    for key, value in raw.items():
        if key in GRID_AXES and not isinstance(value, list):
            value = [value]  # a grid axis takes one value or a list
        fields[key] = _cast_field(key, value)
    return fields


def build_spec(
    preset: str | None,
    config_fields: dict | None = None,
    flag_fields: dict | None = None,
) -> ExperimentSpec:
    """Layer preset, config file, and flags (later wins) into one spec."""
    # ExperimentSpec refuses an unknown preset
    fields: dict = {**PRESETS.get(preset, {}), "preset": preset}
    for layer in (config_fields or {}), (flag_fields or {}):
        # None leaves a field as it is.  A layer that sets one activity leg
        # and not the other switches the other off.
        for key, value in layer.items():
            if value is not None:
                fields[key] = value
        for leg, other in ACTIVITY_LEGS, ACTIVITY_LEGS[::-1]:
            if layer.get(leg) is not None and layer.get(other) is None:
                fields[other] = None
    spec = ExperimentSpec(**fields)
    if "population" in (config_fields or {}) and spec.p_a is None:
        raise SchemaError("key 'population' applies only with p_a, not with n_active")
    return spec


def expand_grid(spec: ExperimentSpec) -> list[dict]:
    """Grid points in output order: the product over GRID_AXES, first axis
    outermost, with the activity leg the spec sets."""
    names = [name for name in GRID_AXES if getattr(spec, name) is not None]
    points = [dict(zip(names, values))
              for values in itertools.product(*(getattr(spec, n) for n in names))]
    for point in points:
        point["channel_kind"] = "iid" if point["rho"] == 0.0 else "correlated"
        if spec.p_a is not None:
            point["population"] = spec.population
    return points


def _fmt(value) -> str:
    """Deterministic cell formatting; empty string for missing values."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _point_error(spec: ExperimentSpec, point: dict) -> tuple[ScenarioConfig | None, dict]:
    """Build one grid point and its CSV row, with every cell but the
    campaign's: in every mode but simulate, the closed-form value and a note
    naming its flavor.  A point that cannot be built, or whose closed form
    raises, gets None and an error row with no values, so it is not simulated."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update({k: _fmt(v) for k, v in point.items()})
    row.update(alpha_th_linear=_fmt(db_to_linear(point["alpha_th_db"])),
               snr_linear=_fmt(db_to_linear(point["snr_db"])),
               seed=str(spec.master_seed), trials="0", status="ok")
    value, note = None, ""
    try:
        built = build_scenario(point, spec.n_zc, spec.trials, spec.master_seed)
        if spec.mode == "collision":
            value = p_no_pattern_collision(built.p_a, built.population, built.pool)
            note = "collision-free-only"
        elif spec.mode != "simulate":
            reason = no_closed_form_reason(built.pool)
            if reason is not None:
                note = f"no-closed-form: {reason}"
            else:
                value = analytic_reference(built)
                note = "single-sequence-baseline" if built.pool.l == 1 else ""
    except ValueError as exc:
        row["status"] = f"error: {exc}"
        return None, row
    row.update(p_success_analytic=_fmt(value), analytic_note=note)
    return built, row


def _result_rows(rows: list[dict], sim_results: dict[int, SweepResult]) -> None:
    """Write the campaign's cells into the build pass's row (_point_error) of
    each simulated point, keyed by grid index."""
    for idx, res in sim_results.items():
        row = rows[idx]
        row.update(status=res.status, trials=str(res.trials_used))
        if res.status == "ok":
            row.update(p_success_sim=_fmt(res.empirical_p_success),
                       ci_lo=_fmt(res.wilson_ci_95[0]), ci_hi=_fmt(res.wilson_ci_95[1]))


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
    sidecar = csv_path + SIDECAR_SUFFIX
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar


def run_experiment(spec: ExperimentSpec, echo=print) -> int:
    """Expand, evaluate, and export one sweep; returns the process exit code."""
    out_dir = os.path.dirname(spec.out) or "."
    if not os.path.isdir(out_dir):  # fail before the campaign, not after it
        raise FileNotFoundError(f"output directory {out_dir!r} does not exist")
    for path in spec.out, spec.out + SIDECAR_SUFFIX:
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path {path!r} is a directory")
    points = expand_grid(spec)
    built = [_point_error(spec, p) for p in points]
    rows = [row for _, row in built]
    # keyed by grid index: the index is the point's RNG substream id
    configs = {idx: cfg for idx, (cfg, _) in enumerate(built) if cfg is not None}
    if spec.mode in ("simulate", "both") and configs:
        echo(
            f"running {len(configs)} grid points x {spec.trials} trials "
            f"(seed={spec.master_seed}, threads={spec.threads})"
        )
        _result_rows(rows, run_campaign(configs, threads=spec.threads))
    write_csv(spec.out, rows, CSV_COLUMNS)
    sidecar = write_sidecar(spec.out, spec, len(points))
    failed = [r for r in rows if r["status"] != "ok"]
    for row in failed:
        echo(f"point failed: {row['status']}")
    echo(f"wrote {spec.out} ({len(rows)} rows) and {sidecar}")
    return 1 if failed else 0


def run_topology(out: str, master_seed: int, echo=print) -> int:
    """Export the cell grid of the correlated trials and one seeded UE drop as CSV."""
    if master_seed < 0:
        raise SchemaError(f"master_seed must be >= 0, got {master_seed}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(master_seed)))
    ue_x, ue_y = drop_positions(rng, 1)[0]
    centers = cell_centers()
    columns = ["kind", "index", "x_m", "y_m", "cell_radius_m", "min_dist_m"]
    rows = [
        {
            "kind": "cell", "index": str(i),
            "x_m": _fmt(float(x)), "y_m": _fmt(float(y)),
            "cell_radius_m": _fmt(CELL_RADIUS_M), "min_dist_m": "",
        }
        for i, (x, y) in enumerate(centers)
    ]
    rows.append({
        "kind": "ue", "index": "0",
        "x_m": _fmt(float(ue_x)), "y_m": _fmt(float(ue_y)),
        "cell_radius_m": "", "min_dist_m": _fmt(MIN_DIST_M),
    })
    write_csv(out, rows, columns)
    echo(f"wrote {out} ({len(centers)} cells + 1 UE)")
    return 0


def make_parser() -> argparse.ArgumentParser:
    defaults = ", ".join(f"{key}={list(v) if isinstance(v, tuple) else v}"
                         for key, v in dataclasses.asdict(ExperimentSpec()).items()
                         if v is not None)
    snrs = ", ".join(f"{name} {list(p['snr_db'])}" for name, p in PRESETS.items())
    parser = argparse.ArgumentParser(
        prog="pdra-bench",
        description=(
            "Run pattern-based random access sweeps and export CSV results. "
            "Precedence per field: flag > config file > preset > built-in "
            f"default. Built-in defaults: {defaults}. Preset SNR defaults in "
            f"dB: {snrs} (calibration choices; threshold comparisons are "
            "SNR-sensitive)."
        ),
    )
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS) + ["topology"],
        help=("named experiment grid; fields remain overridable via --config/flags "
              "(topology takes only --out and --seed)"),
    )
    parser.add_argument("--config", metavar="PATH",
                        help="flat YAML mapping of spec fields (lists allowed)")
    parser.add_argument("--mode", choices=MODES,
                        help="analytic curves, Monte Carlo, both, or the collision-free curve")
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument("--seed", type=int, help="master seed for all points")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    parser.add_argument("--threads", type=int, help="worker processes for grid points")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.preset == "topology":
            ignored = [f"--{name}" for name in ("config", "mode", "trials", "threads")
                       if getattr(args, name) is not None]
            if ignored:
                raise SchemaError(f"--preset topology takes only --out and --seed, "
                                  f"got {', '.join(ignored)}")
            return run_topology(args.out or "pdra-topology.csv",
                                1 if args.seed is None else args.seed)
        config_fields = parse_config(args.config) if args.config else {}
        flag_fields = {
            "mode": args.mode,
            "out": args.out,
            "trials": args.trials,
            "master_seed": args.seed,
            "threads": args.threads,
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
