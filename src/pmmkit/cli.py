"""Command-line entry point tying the modules into end-to-end workflows.

Subcommands: simulate, theoretical-mse, fit, forecast, evaluate (plus a
hidden oracle subcommand for debugging).  Every subcommand is deterministic
given its flags, writes output files atomically, exits 0 only when all
outputs were written, and reports failures as machine-readable JSON on
stderr.  Set PMM_LOG=DEBUG|INFO|WARNING for log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._backend import backend_name
from .error_analysis import (
    curves_to_csv,
    forecaster_mse,
    mse_sweep,
    theoretical_mse_pmm,
)
from .filtering import run_filter
from .forecasting import forecast, forecast_path
from .io import atomic_write, read_columns
from .model import (
    PmmError,
    hmm_params,
    load_params,
    markov_form,
    validate,
)
from .oracle import oracle_filter, oracle_forecast
from .pipeline import (
    DEFAULT_PERIODS,
    FittedModel,
    StandardizationParams,
    detrend,
    estimate_params,
    evaluate_grid,
    fit_detrend,
    read_series_csv,
)
from .presets import PRESET_NAMES, get_preset
from .simulate import (
    empirical_covariances,
    monte_carlo_mse,
    sample,
    trajectory_to_csv,
)

log = logging.getLogger("pmmkit")


def _atomic_write(path: Path, write_fn) -> None:
    atomic_write(path, write_fn)
    log.info("wrote %s", path)


def _parse_grid(text: str) -> list[int]:
    """Comma-separated integers; a:b expands to the inclusive range."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            lo, hi = part.split(":", 1)
            values.extend(range(int(lo), int(hi) + 1))
        elif part:
            values.append(int(part))
    if not values:
        raise ValueError(f"empty grid: {text!r}")
    return values


def _parse_periods(text: str) -> tuple[float, float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"--periods needs two comma-separated values, got {text!r}")
    return parts[0], parts[1]


def _read_y_column(path: str) -> np.ndarray:
    """The observed column only; used where the hidden series is unknown."""
    return read_columns(path, ("y",))[0]


def _print_json(payload: dict) -> None:
    # Strict JSON: a NaN or infinity raises instead of printing NaN/Infinity.
    print(json.dumps(payload, indent=2, allow_nan=False))


def _require_positive_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"--n must be >= 1, got {n}")


def _load_fitted(args) -> FittedModel:
    if getattr(args, "model", None):
        return FittedModel.load(args.model)
    if not getattr(args, "params", None):
        raise ValueError("need --model or --params")
    # Bare parameters: identity standardization, no seasonal component.
    params = load_params(args.params)
    ident = StandardizationParams(0.0, 1.0)
    return FittedModel(params=params, x_standardize=ident, y_standardize=ident)


def cmd_simulate(args) -> int:
    traj = sample(load_params(args.params), args.n, args.seed)
    _atomic_write(Path(args.output), lambda fh: trajectory_to_csv(traj, fh))
    _print_json(
        {
            "output": str(args.output),
            "n": args.n,
            "seed": args.seed,
            "rng": traj.rng,
            "backend": backend_name(),
            "empirical_covariances": empirical_covariances(traj.x, traj.y).to_dict(),
        }
    )
    return 0


def cmd_theoretical_mse(args) -> int:
    if args.preset:
        preset = get_preset(args.preset)
        p_true, p_hmm = preset.true_params, preset.hmm_reference
        n_values: list[int] = list(preset.n_values)
        k_values: list[int] = list(preset.k_values)
    else:
        if not (args.params and args.hmm_params):
            raise ValueError("need --preset, or both --params and --hmm-params")
        p_true = load_params(args.params)
        p_hmm = load_params(args.hmm_params)
        n_values = [1]
        k_values = [0]
    if args.n_grid:
        n_values = _parse_grid(args.n_grid)
    if args.k_grid:
        k_values = _parse_grid(args.k_grid)
    curves = mse_sweep(p_true, p_hmm, n_values, k_values)
    _atomic_write(Path(args.output), lambda fh: curves_to_csv(curves, fh))
    _print_json(
        {
            "output": str(args.output),
            "curves": len(curves),
            "points_per_curve": len(curves[0].points),
            "true_params": p_true.to_dict(),
            "hmm_params": p_hmm.to_dict(),
        }
    )
    return 0


def cmd_fit(args) -> int:
    x, y = read_series_csv(args.input)
    detrend_model = None
    if args.detrend:
        detrend_model = fit_detrend(y, _parse_periods(args.periods))
        y = detrend(y, detrend_model)
    if args.window:
        lo, hi = (int(v) for v in args.window.split(":", 1))
        if not (0 <= lo < hi <= x.size):
            raise ValueError(f"--window {args.window} out of range for {x.size} rows")
        window = (lo, hi)
    else:
        window = (0, int(x.size))
    fitted = estimate_params(
        x[window[0] : window[1]],
        y[window[0] : window[1]],
        detrend_model=detrend_model,
        fit_window=window,
    )
    _atomic_write(
        Path(args.output),
        lambda fh: fh.write(json.dumps(fitted.to_json_dict(), indent=2) + "\n"),
    )
    _print_json(
        {
            "output": str(args.output),
            "params": fitted.params.to_dict(),
            "repaired": fitted.repaired,
            "validation": validate(fitted.params).summary(),
        }
    )
    return 0


def cmd_forecast(args) -> int:
    _require_positive_n(args.n)
    fitted = _load_fitted(args)
    y = _read_y_column(args.input)
    if args.n > y.size:
        raise ValueError(f"--n {args.n} exceeds the {y.size} available observations")
    tail = y[-args.n :]
    if fitted.detrend is not None:
        offset = args.start_index + (y.size - args.n)
        tail = detrend(tail, fitted.detrend, start_index=offset)
    tail_std = fitted.y_standardize.apply(tail)
    model = markov_form(fitted.params)
    state = run_filter(model, tail_std)
    path = forecast_path(state, model, args.k)
    if not args.horizon_path:
        path = path[-1:]
    rows = []
    for result in path:
        xs = fitted.x_standardize
        rows.append(
            {
                "k": result.horizon,
                "mean": result.mean,
                "variance": result.variance,
                "mean_original": float(xs.invert(np.array(result.mean))),
                "variance_original": result.variance * xs.std**2,
            }
        )
    if args.output:
        def write(fh):
            fh.write("k,mean,variance,mean_original,variance_original\n")
            for r in rows:
                fh.write(
                    f"{r['k']},{r['mean']:.12e},{r['variance']:.12e},"
                    f"{r['mean_original']:.12e},{r['variance_original']:.12e}\n"
                )

        _atomic_write(Path(args.output), write)
    _print_json({"n": args.n, "filter_mean": state.mean, "forecasts": rows})
    return 0


def cmd_evaluate(args) -> int:
    fitted = FittedModel.load(args.model)
    x, y = read_series_csv(args.input)
    if fitted.detrend is not None:
        y = detrend(y, fitted.detrend, start_index=args.start_index)
    n_values = _parse_grid(args.n_grid)
    k_values = _parse_grid(args.k_grid)
    # The fitted model first, so that inadmissible parameters are reported
    # by markov_form's gate rather than by the restriction's |a| < 1 check.
    mse_pmm = evaluate_grid(fitted, x, y, n_values, k_values)
    hmm_restriction = hmm_params(fitted.params.a, fitted.params.b)
    hmm_fitted = FittedModel(
        params=hmm_restriction,
        x_standardize=fitted.x_standardize,
        y_standardize=fitted.y_standardize,
        detrend=fitted.detrend,
        fit_window=fitted.fit_window,
    )
    mse_hmm = evaluate_grid(hmm_fitted, x, y, n_values, k_values)
    rows = [
        (n, k, mse_hmm[(n, k)], mse_pmm[(n, k)]) for n in n_values for k in k_values
    ]

    def write(fh):
        fh.write("n,k,mse_hmm,mse_pmm\n")
        for n, k, mse_h, mse_p in rows:
            fh.write(f"{n},{k},{mse_h:.12e},{mse_p:.12e}\n")

    _atomic_write(Path(args.output), write)
    _print_json(
        {
            "output": str(args.output),
            "rows": len(rows),
            "hmm_restriction": hmm_restriction.to_dict(),
            "pmm_wins": sum(1 for r in rows if r[3] <= r[2]),
        }
    )
    return 0


def cmd_monte_carlo(args) -> int:
    p_true = load_params(args.params)
    p_fc = load_params(args.forecaster_params) if args.forecaster_params else p_true
    mse, stderr = monte_carlo_mse(p_true, p_fc, args.n, args.k, args.reps, args.seed)
    theory = forecaster_mse(p_true, p_fc, [args.n], [args.k])[(args.n, args.k)]
    _print_json(
        {
            "n": args.n,
            "k": args.k,
            "reps": args.reps,
            "seed": args.seed,
            "rng": "numpy-pcg64",
            "mse": mse,
            "stderr": stderr,
            "theoretical_mse": theory,
        }
    )
    return 0


def cmd_oracle(args) -> int:
    _require_positive_n(args.n)
    params = load_params(args.params)
    y = _read_y_column(args.input)[: args.n]
    if y.size < args.n:
        raise ValueError(f"input has fewer than {args.n} observations")
    if args.k == 0:
        mean, variance = oracle_filter(params, y)
    else:
        mean, variance = oracle_forecast(params, y, args.k)
    recursive = None
    model = markov_form(params)
    state = run_filter(model, y)
    if args.k == 0:
        recursive = {"mean": state.mean, "variance": state.variance}
    else:
        res = forecast(state, model, args.k)
        recursive = {"mean": res.mean, "variance": res.variance}
    _print_json(
        {
            "n": args.n,
            "k": args.k,
            "oracle": {"mean": mean, "variance": variance},
            "recursive": recursive,
            "theoretical_mse": theoretical_mse_pmm(params, args.n, args.k),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmmkit",
        description=(
            "Filtering, k-step forecasting and MSE analysis for stationary "
            "Gaussian pairwise Markov models"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{simulate,theoretical-mse,fit,forecast,evaluate,monte-carlo}",
    )

    p = sub.add_parser("simulate", help="sample a trajectory to CSV (t,x,y)")
    p.add_argument("--params", required=True, help="parameter JSON file")
    p.add_argument("--n", type=int, required=True, help="number of steps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="trajectory CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "theoretical-mse",
        help="exact MSE sweep of both forecasters to CSV (model,sweep,index,mse)",
    )
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--params", help="true-model parameter JSON")
    p.add_argument("--hmm-params", help="forecaster parameter JSON (HMM-constrained)")
    p.add_argument("--n-grid", help="e.g. 1:100 or 1,5,10")
    p.add_argument("--k-grid", help="e.g. 1:50 or 0")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_theoretical_mse)

    p = sub.add_parser("fit", help="estimate parameters from a CSV of x,y columns")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="fitted-model JSON path")
    p.add_argument("--detrend", action="store_true", help="remove harmonic seasonality from y")
    p.add_argument(
        "--periods",
        default=f"{DEFAULT_PERIODS[0]:g},{DEFAULT_PERIODS[1]:g}",
        help="two harmonic periods in samples",
    )
    p.add_argument("--window", help="fit window start:end (row indices, end exclusive)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="forecast from the last n observations")
    p.add_argument("--model", help="fitted-model JSON")
    p.add_argument("--params", help="bare parameter JSON (no standardization)")
    p.add_argument("--input", required=True, help="CSV with a y column")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--horizon-path", action="store_true", help="emit horizons 1..k")
    p.add_argument(
        "--start-index",
        type=int,
        default=0,
        help="absolute index of the input's first row (anchors the seasonal phase)",
    )
    p.add_argument("--output", help="optional CSV output")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser(
        "evaluate", help="sliding-window MSE table over an (n, k) grid"
    )
    p.add_argument("--model", required=True, help="fitted-model JSON")
    p.add_argument("--input", required=True, help="test CSV with x,y columns")
    p.add_argument("--n-grid", required=True)
    p.add_argument("--k-grid", required=True)
    p.add_argument("--start-index", type=int, default=0)
    p.add_argument("--output", required=True, help="table CSV (n,k,mse_hmm,mse_pmm)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "monte-carlo",
        help="empirical forecast MSE over simulated replicates",
    )
    p.add_argument("--params", required=True, help="true-model parameter JSON")
    p.add_argument(
        "--forecaster-params",
        help="forecaster parameter JSON (defaults to the true model)",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_monte_carlo)

    # Debugging aid, hidden from usage: exact joint-covariance conditioning
    # on small inputs.
    p = sub.add_parser("oracle")
    p.add_argument("--params", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("PMM_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PmmError, ValueError, OSError, KeyError) as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
