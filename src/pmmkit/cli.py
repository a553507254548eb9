"""Command-line entry point tying the modules into end-to-end workflows.

Subcommands: simulate, theoretical-mse, fit, forecast, evaluate and
monte-carlo.  Every subcommand is deterministic given its flags, writes
output files atomically through ``pmmkit.io`` (whose writers print every
CSV number by one rule) and returns its JSON summary, whose ``output``
names the file it wrote; ``main`` alone writes stdout, the summary of a
subcommand that succeeded, and exits 0 only then.  Failures are reported as
one machine-readable JSON line on stderr with exit 1; a run that succeeds
writes nothing to stderr.

``theoretical-mse`` and ``--version`` load none of numpy, dataclasses,
inspect, logging and csv: the model, the Riccati recursion, the k-step map
and the exact MSE are Python floats in named tuples, and this module
imports error_analysis and the numpy-backed modules in the subcommands that
use them, so ``fit``, ``forecast`` and ``evaluate`` load no simulation,
kernel, theory or oracle module.

Numpy's BLAS gets one thread: every call works on 2x2/3x3 recursions and
single vectors, where a thread pool only adds start-up, spinning workers
and rounding that depends on the core count.  Imported before numpy, as by
the ``pmmkit`` script and ``python -m pmmkit.cli``, this module sets
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS, BLIS_NUM_THREADS
and VECLIB_MAXIMUM_THREADS to 1 unless one of them is already set; export
any of them to choose otherwise.  Imported after numpy, it changes nothing.
``monte-carlo`` runs its replicate blocks on threads of its own, one per
CPU of the process's affinity mask; each block draws from its own stream
and the results are combined in one thread, so they change no digit.
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
from .forecasting import (
    MAX_GRID_POINTS, MAX_INDEX, MAX_REPLICATES, MAX_SIMULATE_STEPS,
    check_grid, check_int, forecast, forecast_path,
)
from .io import _is_number, atomic_write, read_columns, write_json, write_rows
from .model import (
    FittedModel,
    PmmError,
    check_periods,
    hmm_params,
    load_params,
    markov_form,
    validate,
)
from .presets import PRESET_NAMES, get_preset

if TYPE_CHECKING:
    import numpy as np


def _atomic_write(path: Path, write_fn) -> None:
    """Every file a subcommand writes; a function of its own, so that a
    profiler can tell the CLI's writes from those of the library."""
    atomic_write(path, write_fn)


def _parse_int(text: str) -> int:
    """ASCII digits with an optional sign, a CSV number by ``io._is_number``,
    as an int (int() alone also takes 1_0 and other scripts' digits)."""
    if not _is_number(text):
        raise ValueError(text)
    return int(text)


def _parse_grid(flag: str, text: str, low: int) -> list[int]:
    """Comma-separated integers by ``_parse_int``, no part empty; a:b
    expands to the inclusive range, and needs b >= a.  Errors name ``flag``
    and the bad text.  Before the grid is expanded, ``check_int`` bounds
    its count of integers at MAX_GRID_POINTS and each part's ends in
    low..MAX_GRID_POINTS; ``check_grid`` rules on the rest."""
    ranges: list[range] = []
    try:
        for part in text.split(","):
            lo, colon, hi = part.partition(":")
            ranges.append(range(_parse_int(lo), _parse_int(hi if colon else lo) + 1))
            if not ranges[-1]:
                raise ValueError
    except ValueError:
        raise ValueError(
            f"{flag} needs comma-separated integers or a:b ranges, got {text!r}"
        ) from None
    # Not len(): a range longer than sys.maxsize has none.
    size = sum(r.stop - r.start for r in ranges)
    check_int(size, f"points of {flag} {text!r}", 1, MAX_GRID_POINTS)
    for r in ranges:
        check_int(r.start, flag, low, MAX_GRID_POINTS)
        check_int(r.stop - 1, flag, low, MAX_GRID_POINTS)
    return [v for r in ranges for v in r]


def _parse_periods(text: str) -> tuple[float, float]:
    """Two numbers by the CSV field rule, ``io._is_number``, that pass
    ``check_periods``."""
    parts = text.split(",")
    if len(parts) != 2 or not all(map(_is_number, parts)):
        raise ValueError(f"--periods needs two comma-separated numbers, got {text!r}")
    return check_periods((float(parts[0]), float(parts[1])), "--periods")


def _read_y_column(path: str) -> np.ndarray:
    """The observed column only; used where the hidden series is unknown."""
    return read_columns(path, ("y",))[0]


def cmd_simulate(args) -> dict:
    from .simulate import RNG_ALGORITHM, empirical_covariances, sample, trajectory_to_csv

    traj = sample(load_params(args.params), args.n, args.seed)
    covariances = empirical_covariances(traj.x, traj.y)._asdict()
    _atomic_write(Path(args.output), lambda fh: trajectory_to_csv(traj, fh))
    return {
        "output": str(args.output),
        "n": args.n,
        "seed": args.seed,
        "rng": RNG_ALGORITHM,
        "empirical_covariances": covariances,
    }


def cmd_theoretical_mse(args) -> dict:
    from .error_analysis import curves_to_csv, mse_sweep

    if args.preset:
        # A preset fixes both models; a parameter file beside it would be ignored.
        for flag, value in (("--params", args.params), ("--hmm-params", args.hmm_params)):
            if value is not None:
                raise ValueError(f"argument {flag}: not allowed with argument --preset")
        preset = get_preset(args.preset)
        p_true, p_hmm = preset.true_params, preset.hmm_reference
        n_values, k_values = preset.n_values, preset.k_values
    else:
        if not (args.params and args.hmm_params):
            raise ValueError("need --preset, or both --params and --hmm-params")
        p_true = load_params(args.params)
        p_hmm = load_params(args.hmm_params)
        n_values, k_values = (1,), (0,)
    default = f"the {args.preset} preset's" if args.preset else "the default"
    # An empty --n-grid= is a malformed grid, not the default one.
    n_values, k_values = check_grid(
        n_values if args.n_grid is None else _parse_grid("--n-grid", args.n_grid, 1),
        k_values if args.k_grid is None else _parse_grid("--k-grid", args.k_grid, 0),
        (f"{default} n grid" if args.n_grid is None else "--n-grid",
         f"{default} k grid" if args.k_grid is None else "--k-grid"),
    )
    curves = mse_sweep(p_true, p_hmm, n_values, k_values)
    _atomic_write(Path(args.output), lambda fh: curves_to_csv(curves, fh))
    return {
        "output": str(args.output),
        "curves": len(curves),
        "points_per_curve": len(curves[0].points),
        "true_params": p_true._asdict(),
        "hmm_params": p_hmm._asdict(),
    }


def cmd_fit(args) -> dict:
    from .pipeline import (
        DEFAULT_PERIODS, MIN_FIT_ROWS, _fit_and_detrend, estimate_params, read_series_csv,
    )

    if args.periods is not None and not args.detrend:
        raise ValueError("argument --periods: not allowed without argument --detrend")
    periods = DEFAULT_PERIODS if args.periods is None else _parse_periods(args.periods)
    x, y = read_series_csv(args.input)
    lo, hi = args.window or (0, x.size)
    check_int(hi, "--window end", lo + 1, x.size)
    what = f"rows of --window {lo}:{hi}" if args.window else f"rows of {args.input}"
    check_int(hi - lo, what, MIN_FIT_ROWS)
    seasonal = None
    if args.detrend:
        seasonal, y = _fit_and_detrend(y, periods)
    fitted = estimate_params(x[lo:hi], y[lo:hi])._replace(detrend=seasonal, fit_window=(lo, hi))
    _atomic_write(Path(args.output), lambda fh: write_json(fh, fitted.to_json_dict()))
    return {
        "output": str(args.output),
        "params": fitted.params._asdict(),
        "repaired": fitted.repaired,
        "validation": validate(fitted.params).summary(),
    }


def cmd_forecast(args) -> dict:
    from .filtering import run_filter
    from .pipeline import detrend

    fitted = FittedModel.load(args.model)
    y = _read_y_column(args.input)
    check_int(args.n, "--n", 1, y.size)
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
    return {
        "output": args.output,
        "n": args.n,
        "filter_mean": state.mean,
        "forecasts": [dict(zip(columns, row)) for row in rows],
    }


def cmd_evaluate(args) -> dict:
    from .pipeline import detrend, evaluate_grid, read_series_csv

    names = ("--n-grid", "--k-grid")
    grids = _parse_grid(names[0], args.n_grid, 1), _parse_grid(names[1], args.k_grid, 0)
    fitted = FittedModel.load(args.model)
    x, y = read_series_csv(args.input)
    if fitted.detrend is not None:
        y = detrend(y, fitted.detrend, start_index=args.start_index)
    rows = [(n, k, *cell) for (n, k), cell in evaluate_grid(fitted, x, y, *grids, names).items()]
    columns = ("n", "k", "mse_hmm", "mse_pmm")
    _atomic_write(Path(args.output), lambda fh: write_rows(fh, columns, rows))
    return {
        "output": str(args.output),
        "rows": len(rows),
        "hmm_restriction": hmm_params(fitted.params.a, fitted.params.b)._asdict(),
        "pmm_wins": sum(1 for r in rows if r[3] <= r[2]),
    }


def cmd_monte_carlo(args) -> dict:
    from .error_analysis import forecaster_mse
    from .simulate import RNG_ALGORITHM, monte_carlo_mse

    p_true = load_params(args.params)
    p_fc = load_params(args.forecaster_params) if args.forecaster_params else p_true
    mse, stderr = monte_carlo_mse(
        p_true, p_fc, args.n, args.k, args.reps, args.seed, ("--reps", "--n", "--k")
    )
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


class _Integer(argparse.Action):
    """An integer flag by ``_parse_int``, in low..high by ``check_int``; its
    errors name the flag and reach ``main`` as they are, not as usage text."""

    def __init__(self, *args, low: int = 0, high: int | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.low, self.high = low, high

    def __call__(self, parser, namespace, text, flag=None):
        try:
            value = _parse_int(text)
        except ValueError:
            raise ValueError(f"{flag} must be an integer, got {text!r}") from None
        setattr(namespace, self.dest, check_int(value, flag, self.low, self.high))


class _Window(_Integer):
    """``start:end``, each end by ``_Integer``'s rule, with low <= start < end."""

    def __call__(self, parser, namespace, text, flag=None):
        lo, _, hi = text.partition(":")
        try:
            lo, hi = _parse_int(lo), _parse_int(hi)
        except ValueError:
            raise ValueError(f"{flag} needs start:end row indices, got {text!r}") from None
        lo = check_int(lo, f"{flag} start", self.low)
        setattr(namespace, self.dest, (lo, check_int(hi, f"{flag} end", lo + 1)))


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError, so that ``main`` reports it as
    one JSON line with exit 1 like every other failure.  Subparsers are
    built from this class too; --help and --version still exit 0."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


_MODEL_HELP = "fitted-model JSON, or bare parameter JSON (no standardization or seasonal part)"


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
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("simulate", help="sample a trajectory to CSV (t,x,y)")
    p.add_argument("--params", required=True, help="parameter JSON file")
    p.add_argument("--n", action=_Integer, low=2, high=MAX_SIMULATE_STEPS, required=True,
                   help="number of steps, at least 2 for the lag-one covariances")
    p.add_argument("--seed", action=_Integer, default=0)
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
    p.add_argument("--window", action=_Window, help="fit window start:end (rows, end exclusive)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="forecast from the last n observations")
    p.add_argument("--model", required=True, help=_MODEL_HELP)
    p.add_argument("--input", required=True, help="CSV with a y column")
    p.add_argument("--n", action=_Integer, low=1, required=True)
    p.add_argument("--k", action=_Integer, low=1, high=MAX_GRID_POINTS, required=True)
    p.add_argument("--horizon-path", action="store_true", help="emit horizons 1..k")
    # A negative index would anchor the seasonal phase before the series.
    p.add_argument("--start-index", action=_Integer, high=MAX_INDEX, default=0,
                   help="absolute index of the input's first row (anchors the seasonal phase)")
    p.add_argument("--output", help="optional CSV output")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser(
        "evaluate", help="sliding-window MSE table over an (n, k) grid"
    )
    p.add_argument("--model", required=True, help=_MODEL_HELP)
    p.add_argument("--input", required=True, help="test CSV with x,y columns")
    p.add_argument("--n-grid", required=True)
    p.add_argument("--k-grid", required=True)
    p.add_argument("--start-index", action=_Integer, high=MAX_INDEX, default=0)
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
    p.add_argument("--n", action=_Integer, low=1, high=MAX_GRID_POINTS, required=True)
    p.add_argument("--k", action=_Integer, high=MAX_GRID_POINTS, required=True)
    p.add_argument("--reps", action=_Integer, low=100, high=MAX_REPLICATES, default=10_000)
    p.add_argument("--seed", action=_Integer, default=0)
    p.set_defaults(func=cmd_monte_carlo)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
