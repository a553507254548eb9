"""Command-line entry point tying the modules into end-to-end workflows.

Subcommands: simulate, theoretical-mse, fit, forecast, evaluate,
monte-carlo (plus a hidden oracle subcommand for debugging).  Every
subcommand is deterministic given its flags, writes output files atomically
through ``pmmkit.io`` (whose writers print every CSV number by one rule)
and returns its JSON summary; ``main`` alone writes stdout, the summary of
a subcommand that succeeded, and exits 0 only then.  Failures are reported as one
machine-readable JSON line on stderr with exit 1.  Set
PMM_LOG=DEBUG|INFO|WARNING for log verbosity.

``theoretical-mse`` and ``--version`` load none of numpy, dataclasses,
inspect, logging and csv: the model, the Riccati recursion, the k-step map
and the exact MSE are Python floats in named tuples, and this module
imports the numpy-backed modules (pipeline, simulate, oracle, filtering)
in the subcommands that use them; logging loads when PMM_LOG is set or
when the process has loaded it already.

Numpy's BLAS gets one thread: every call works on 2x2/3x3 recursions and
single vectors, where a thread pool only adds start-up, spinning workers
and rounding that depends on the core count.  Imported before numpy, as by
the ``pmmkit`` script and ``python -m pmmkit.cli``, this module sets
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS, BLIS_NUM_THREADS
and VECLIB_MAXIMUM_THREADS to 1 unless one of them is already set; export
any of them to choose otherwise.  Imported after numpy, it changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Before numpy loads, so that its BLAS reads the pin; see the docstring.
_THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_ENV):
    os.environ.update(dict.fromkeys(_THREAD_ENV, "1"))

from . import __version__
from .error_analysis import (
    _first_repeat,
    curves_to_csv,
    forecaster_mse,
    mse_sweep,
    theoretical_mse_pmm,
)
from .forecasting import forecast, forecast_path
from .io import atomic_write, read_columns, write_json, write_rows
from .model import (
    PmmError,
    hmm_params,
    load_params,
    markov_form,
    validate,
)
from .presets import PRESET_NAMES, get_preset

if TYPE_CHECKING:
    import numpy as np

    from .pipeline import FittedModel

# Most integers one --n-grid or --k-grid may hold (the a:b ranges are
# counted before any is expanded), and the largest horizon or window that
# forecast, monte-carlo and a theoretical-mse --n-grid or --k-grid take:
# each costs time linear in it (the exact MSE's fixed-point exit need not
# fire before n).
MAX_GRID_POINTS = 10**6


def _atomic_write(path: Path, write_fn) -> None:
    atomic_write(path, write_fn)
    # Only a process that loaded logging can have a handler for this line.
    if logging := sys.modules.get("logging"):
        logging.getLogger("pmmkit").info("wrote %s", path)


def _parse_grid(flag: str, text: str) -> list[int]:
    """Distinct comma-separated integers; a:b expands to the inclusive
    range.  Errors name ``flag`` and the bad text; a grid of more than
    MAX_GRID_POINTS integers is rejected before it is expanded."""
    ranges: list[range] = []
    try:
        for part in text.split(","):
            lo, colon, hi = part.strip().partition(":")
            if lo or colon:
                ranges.append(range(int(lo), int(hi if colon else lo) + 1))
    except ValueError:
        raise ValueError(
            f"{flag} needs comma-separated integers or a:b ranges, got {text!r}"
        ) from None
    # Not len(): a range longer than sys.maxsize has none.
    size = sum(max(r.stop - r.start, 0) for r in ranges)
    if not size:
        raise ValueError(f"{flag} is an empty grid: {text!r}")
    if size > MAX_GRID_POINTS:
        raise ValueError(
            f"{flag} holds {size} points, more than {MAX_GRID_POINTS}: {text!r}"
        )
    values = [v for r in ranges for v in r]
    if (repeat := _first_repeat(values)) is not None:
        raise ValueError(f"{flag} repeats the value {repeat}: {text!r}")
    return values


def _parse_periods(text: str) -> tuple[float, float]:
    try:
        p1, p2 = (float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(
            f"--periods needs two comma-separated numbers, got {text!r}"
        ) from None
    return p1, p2


def _read_y_column(path: str) -> np.ndarray:
    """The observed column only; used where the hidden series is unknown."""
    return read_columns(path, ("y",))[0]


def _require_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def _require_at_most(flag: str, value: int) -> None:
    if value > MAX_GRID_POINTS:
        raise ValueError(f"{flag} must be <= {MAX_GRID_POINTS}, got {value}")


def _load_fitted(args) -> FittedModel:
    from .pipeline import FittedModel, StandardizationParams

    if args.model is not None:
        return FittedModel.load(args.model)
    # Bare parameters: identity standardization, no seasonal component.
    params = load_params(args.params)
    ident = StandardizationParams(0.0, 1.0)
    return FittedModel(params=params, x_standardize=ident, y_standardize=ident)


def cmd_simulate(args) -> dict:
    from .simulate import empirical_covariances, sample, trajectory_to_csv

    _require_at_least("--n", args.n, 2)  # the summary's lag-one covariances
    traj = sample(load_params(args.params), args.n, args.seed)
    covariances = empirical_covariances(traj.x, traj.y).to_dict()
    _atomic_write(Path(args.output), lambda fh: trajectory_to_csv(traj, fh))
    return {
        "output": str(args.output),
        "n": args.n,
        "seed": args.seed,
        "rng": traj.rng,
        "empirical_covariances": covariances,
    }


def cmd_theoretical_mse(args) -> dict:
    if args.preset:
        # A preset fixes both models; a parameter file beside it would be ignored.
        for flag, value in (("--params", args.params), ("--hmm-params", args.hmm_params)):
            if value is not None:
                raise ValueError(f"argument {flag}: not allowed with argument --preset")
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
        n_values = _parse_grid("--n-grid", args.n_grid)
        _require_at_most("--n-grid", max(n_values))
    if args.k_grid:
        k_values = _parse_grid("--k-grid", args.k_grid)
        _require_at_most("--k-grid", max(k_values))
    curves = mse_sweep(p_true, p_hmm, n_values, k_values)
    _atomic_write(Path(args.output), lambda fh: curves_to_csv(curves, fh))
    return {
        "output": str(args.output),
        "curves": len(curves),
        "points_per_curve": len(curves[0].points),
        "true_params": p_true.to_dict(),
        "hmm_params": p_hmm.to_dict(),
    }


def cmd_fit(args) -> dict:
    from .pipeline import (
        DEFAULT_PERIODS, detrend, estimate_params, fit_detrend, read_series_csv,
    )

    if args.periods is not None and not args.detrend:
        raise ValueError("argument --periods: not allowed without argument --detrend")
    x, y = read_series_csv(args.input)
    detrend_model = None
    if args.detrend:
        periods = DEFAULT_PERIODS if args.periods is None else _parse_periods(args.periods)
        detrend_model = fit_detrend(y, periods)
        y = detrend(y, detrend_model)
    if args.window:
        try:
            lo, hi = (int(v) for v in args.window.split(":", 1))
        except ValueError:
            raise ValueError(
                f"--window needs start:end row indices, got {args.window!r}"
            ) from None
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
    _atomic_write(Path(args.output), lambda fh: write_json(fh, fitted.to_json_dict()))
    return {
        "output": str(args.output),
        "params": fitted.params.to_dict(),
        "repaired": fitted.repaired,
        "validation": validate(fitted.params).summary(),
    }


def cmd_forecast(args) -> dict:
    from .filtering import run_filter
    from .pipeline import detrend

    _require_at_least("--n", args.n, 1)
    _require_at_most("--k", args.k)
    # A negative index would anchor the seasonal phase before the series.
    _require_at_least("--start-index", args.start_index, 0)
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
    if args.horizon_path:
        path = forecast_path(state, model, args.k)
    else:
        path = [forecast(state, model, args.k)]
    xs = fitted.x_standardize
    columns = ("k", "mean", "variance", "mean_original", "variance_original")
    rows = [
        (r.horizon, r.mean, r.variance, xs.invert(r.mean), r.variance * xs.std**2)
        for r in path
    ]
    if args.output:
        _atomic_write(Path(args.output), lambda fh: write_rows(fh, columns, rows))
    forecasts = [dict(zip(columns, row)) for row in rows]
    return {"n": args.n, "filter_mean": state.mean, "forecasts": forecasts}


def cmd_evaluate(args) -> dict:
    import dataclasses

    from .pipeline import FittedModel, detrend, evaluate_grid, read_series_csv

    _require_at_least("--start-index", args.start_index, 0)
    fitted = FittedModel.load(args.model)
    x, y = read_series_csv(args.input)
    if fitted.detrend is not None:
        y = detrend(y, fitted.detrend, start_index=args.start_index)
    n_values = _parse_grid("--n-grid", args.n_grid)
    k_values = _parse_grid("--k-grid", args.k_grid)
    # The fitted model first, so that inadmissible parameters are reported
    # by markov_form's gate rather than by the restriction's |a| < 1 check.
    mse_pmm = evaluate_grid(fitted, x, y, n_values, k_values)
    hmm_restriction = hmm_params(fitted.params.a, fitted.params.b)
    hmm_fitted = dataclasses.replace(fitted, params=hmm_restriction)
    mse_hmm = evaluate_grid(hmm_fitted, x, y, n_values, k_values)
    rows = [
        (n, k, mse_hmm[(n, k)], mse_pmm[(n, k)]) for n in n_values for k in k_values
    ]
    columns = ("n", "k", "mse_hmm", "mse_pmm")
    _atomic_write(Path(args.output), lambda fh: write_rows(fh, columns, rows))
    return {
        "output": str(args.output),
        "rows": len(rows),
        "hmm_restriction": hmm_restriction.to_dict(),
        "pmm_wins": sum(1 for r in rows if r[3] <= r[2]),
    }


def cmd_monte_carlo(args) -> dict:
    from .simulate import RNG_ALGORITHM, monte_carlo_mse

    _require_at_most("--n", args.n)
    _require_at_most("--k", args.k)
    p_true = load_params(args.params)
    p_fc = load_params(args.forecaster_params) if args.forecaster_params else p_true
    mse, stderr = monte_carlo_mse(p_true, p_fc, args.n, args.k, args.reps, args.seed)
    theory = forecaster_mse(p_true, p_fc, [args.n], [args.k])[(args.n, args.k)]
    return {
        "n": args.n,
        "k": args.k,
        "reps": args.reps,
        "seed": args.seed,
        "rng": RNG_ALGORITHM,
        "mse": mse,
        "stderr": stderr,
        "theoretical_mse": theory,
    }


def cmd_oracle(args) -> dict:
    from .filtering import run_filter
    from .oracle import oracle_forecast

    _require_at_least("--n", args.n, 1)
    params = load_params(args.params)
    y = _read_y_column(args.input)[: args.n]
    if y.size < args.n:
        raise ValueError(f"input has fewer than {args.n} observations")
    # The filter state (the forecast at k = 0) or the k-step forecast, both
    # with mean and variance.
    mean, variance = oracle_forecast(params, y, args.k)
    model = markov_form(params)
    recursive = run_filter(model, y)
    if args.k:
        recursive = forecast(recursive, model, args.k)
    return {
        "n": args.n,
        "k": args.k,
        "oracle": {"mean": mean, "variance": variance},
        "recursive": {"mean": recursive.mean, "variance": recursive.variance},
        "theoretical_mse": theoretical_mse_pmm(params, args.n, args.k),
    }


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError, so that ``main`` reports it as
    one JSON line with exit 1 like every other failure.  Subparsers are
    built from this class too; --help and --version still exit 0."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        # pipeline.DEFAULT_PERIODS, spelled out: pipeline loads numpy.
        help="two harmonic periods in samples, with --detrend (default 24,8772)",
    )
    p.add_argument("--window", help="fit window start:end (row indices, end exclusive)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="forecast from the last n observations")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="fitted-model JSON")
    source.add_argument("--params", help="bare parameter JSON (no standardization)")
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


def _configure_logging() -> None:
    """Log at the level named by PMM_LOG, in any case; WARNING when unset.
    Without PMM_LOG, logging stays unloaded unless the process loaded it."""
    if "PMM_LOG" not in os.environ and "logging" not in sys.modules:
        return
    import logging

    name = os.environ.get("PMM_LOG", "WARNING")
    # Maps a level name to its number and anything else to a string.
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        raise ValueError(
            f"PMM_LOG={name!r} is not a log level; "
            "use DEBUG, INFO, WARNING, ERROR or CRITICAL"
        )
    logging.basicConfig(level=level)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _configure_logging()
        write_json(sys.stdout, args.func(args))
        return 0
    # ImportError: a subcommand that needs numpy, on an install without it.
    except (PmmError, ValueError, OSError, KeyError, MemoryError, ImportError) as exc:
        # numpy raises a private MemoryError subclass; report the public name.
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        json.dump({"error": name, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
