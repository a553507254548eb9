"""The three workloads: their generated inputs, their CLI calls, and a
correctness check for every call.

A workload's session is one closed-loop pass over its calls.  Each call
names the workflow it belongs to, its argv after ``pmmkit``, and a check
that receives the call's standard output and reads its output files.  A
check raises ``CheckError`` on any mismatch; any other exception from a
check (a missing key, an unreadable file) also fails the call.  References
are computed once per run, since every session repeats the same inputs.

Every input comes from ``numpy.random.default_rng`` seeded with the
benchmark seed; input sizes do not depend on the seed, so every seed does
the same amount of work.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# fig4's pairwise model: the hidden-Markov base a = 0.9, b = -0.2 with
# d and e moved off the constraint.
BASE_A, BASE_B = 0.9, -0.2
HMM_BASE = ref.hmm_restriction(BASE_A, BASE_B)
FIG2_TRUE = HMM_BASE[:4] + (HMM_BASE[4] - 0.4,)
FIG4_TRUE = HMM_BASE[:3] + (HMM_BASE[3] - 0.2, HMM_BASE[4] - 0.4)

# The paper's figures: (true model, n grid, k grid).
PRESETS = {
    "fig2": (FIG2_TRUE, range(1, 101), [0]),
    "fig3": (FIG2_TRUE, [1, 5, 10], range(1, 101)),
    "fig4": (FIG4_TRUE, range(1, 201), [0]),
    "fig5": (FIG4_TRUE, [1, 5, 10], range(1, 101)),
}
SWEEP_N = range(1, 401)
# Largest HMM/PMM filtering-MSE ratio of each figure, to two decimals.
PEAK_RATIO = {"fig2": 5.99, "fig4": 12.74}
ORACLE_MAX = 16  # points with n + k up to this are also conditioned exactly

SERIES_ROWS = 300_000
FORECAST_N, FORECAST_K = 50_000, 100
EVAL_N, EVAL_K = [5, 20, 50], [1, 24, 48]
PERIODS = (24.0, 8772.0)
SIMULATE_N = 300_000
MC_N, MC_K, MC_REPS = 50, 5, 100_000
MC_MAX_Z = 5.0

RTOL = 1e-9


class CheckError(Exception):
    """A call's output disagrees with the reference."""


@dataclass
class Call:
    workflow: str
    argv: list[str]
    check: Callable[[str], None]


@dataclass
class Workload:
    name: str
    calls: list[Call]
    inputs: list[Path] = field(default_factory=list)


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def require_close(what: str, got, want, rtol: float = RTOL) -> None:
    err = ref.relative_error(got, want)
    require(err <= rtol, f"{what}: relative error {err:.3g} exceeds {rtol:g}")


def read_table(path: Path, header: str) -> list[list[str]]:
    """Rows of a headed CSV written by the program, header checked."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(bool(rows) and ",".join(rows[0]) == header, f"{path.name}: header is not {header}")
    return rows[1:]


def column(rows: list[list[str]], index: int) -> np.ndarray:
    return np.array([float(r[index]) for r in rows])


def params_tuple(doc: dict) -> tuple:
    return tuple(float(doc[k]) for k in "abcde")


def write_params(path: Path, p) -> None:
    path.write_text(json.dumps(dict(zip("abcde", p))) + "\n")


def file_provenance(path: Path) -> dict:
    data = path.read_bytes()
    return {
        "file": path.name,
        "sha256": hashlib.sha256(data).hexdigest(),
        "rows": data.count(b"\n") - 1 if path.suffix == ".csv" else None,
    }


def _write_series(path: Path, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    # %.17g round-trips every double, so the program parses exactly the
    # values the references use.
    np.savetxt(
        path, np.column_stack([t, x, y]), fmt=["%d", "%.17g", "%.17g"],
        delimiter=",", header="t,x,y", comments="",
    )


# --- series-pipeline -------------------------------------------------------


def series_pipeline(seed: int, work: Path) -> Workload:
    """Fit, forecast and evaluate on a seasonal series generated from fig4's
    pairwise model."""
    rng = np.random.default_rng([seed, 1])
    xs, ys = ref.sample_pmm(FIG4_TRUE, SERIES_ROWS, rng)
    t = np.arange(1, SERIES_ROWS + 1)
    x = 5.0 + 2.0 * xs
    y = (
        20.0 + 3.0 * ys
        + 1.5 * np.cos(2 * np.pi * t / PERIODS[0]) + 0.8 * np.sin(2 * np.pi * t / PERIODS[0])
        + 2.5 * np.cos(2 * np.pi * t / PERIODS[1]) - 1.2 * np.sin(2 * np.pi * t / PERIODS[1])
    )
    half = SERIES_ROWS // 2
    series, test = work / "series.csv", work / "test.csv"
    _write_series(series, t, x, y)
    _write_series(test, t[half:], x[half:], y[half:])
    model, forecast_csv, table = work / "model.json", work / "forecast.csv", work / "table.csv"

    @functools.cache
    def fit_reference():
        theta = ref.fit_harmonics(y, PERIODS)
        resid = y - ref.harmonic_design(0, y.size, PERIODS) @ theta
        xw, yw = x[:half], resid[:half]
        x_moments = (xw.mean(), xw.std(ddof=1))
        y_moments = (yw.mean(), yw.std(ddof=1))
        params = ref.lag_covariances(
            (xw - x_moments[0]) / x_moments[1], (yw - y_moments[0]) / y_moments[1]
        )
        return theta, float(np.var(y, ddof=1)), x_moments, y_moments, params

    def check_fit(stdout: str) -> None:
        out, doc = json.loads(stdout), json.loads(model.read_text())
        theta, sigma, x_moments, y_moments, params = fit_reference()
        require_close("fit params", params_tuple(doc["params"]), params)
        require_close("fit stdout params", params_tuple(out["params"]), params)
        require_close("detrend theta", doc["detrend"]["theta"], theta)
        require_close("detrend sigma", doc["detrend"]["sigma"], sigma)
        require(doc["detrend"]["periods"] == list(PERIODS), "detrend periods differ")
        for key, want in (("x_standardize", x_moments), ("y_standardize", y_moments)):
            require_close(key, [doc[key]["mean"], doc[key]["std"]], want)
        require(doc["fit_window"] == [0, half], "fit window differs")
        require(doc["repaired"] is False and out["repaired"] is False, "estimate was repaired")

    @functools.cache
    def forecast_reference(model_text: str):
        doc = json.loads(model_text)
        p = params_tuple(doc["params"])
        xs_, ys_ = doc["x_standardize"], doc["y_standardize"]
        tail = y[-FORECAST_N:] - ref.harmonic_design(
            SERIES_ROWS - FORECAST_N, FORECAST_N, PERIODS
        ) @ np.asarray(doc["detrend"]["theta"])
        tail = (tail - ys_["mean"]) / ys_["std"]
        mean, variance = ref.filter_mean(p, tail)
        trans, _ = ref.markov_form(p)
        rows = []
        for k, var_k in enumerate(ref.predictive_variances(p, variance, FORECAST_K), start=1):
            row = np.linalg.matrix_power(trans, k)[0]
            mean_k = row[0] * mean + row[1] * tail[-1]
            rows.append(
                [k, mean_k, var_k, mean_k * xs_["std"] + xs_["mean"], var_k * xs_["std"] ** 2]
            )
        return mean, np.array(rows)

    def check_forecast(stdout: str) -> None:
        out = json.loads(stdout)
        mean, want = forecast_reference(model.read_text())
        require(out["n"] == FORECAST_N, "forecast n differs")
        require_close("filter mean", out["filter_mean"], mean)
        keys = ["k", "mean", "variance", "mean_original", "variance_original"]
        got = np.array([[r[key] for key in keys] for r in out["forecasts"]], dtype=float)
        require_close("forecast rows", got, want)
        rows = read_table(forecast_csv, ",".join(keys))
        require(len(rows) == len(want), f"forecast csv has {len(rows)} rows, want {len(want)}")
        require_close("forecast csv", np.column_stack([column(rows, j) for j in range(5)]), want)

    @functools.cache
    def evaluate_reference(model_text: str) -> np.ndarray:
        doc = json.loads(model_text)
        p = params_tuple(doc["params"])
        xs_, ys_ = doc["x_standardize"], doc["y_standardize"]
        x_test = (x[half:] - xs_["mean"]) / xs_["std"]
        y_test = y[half:] - ref.harmonic_design(half, SERIES_ROWS - half, PERIODS) @ np.asarray(
            doc["detrend"]["theta"]
        )
        y_test = (y_test - ys_["mean"]) / ys_["std"]
        table = []
        for n in EVAL_N:
            cells = {}
            for label, q in (("hmm", ref.hmm_restriction(p[0], p[1])), ("pmm", p)):
                means = np.correlate(y_test, ref.filter_weights(q, n), "valid")
                trans, _ = ref.markov_form(q)
                for k in EVAL_K:
                    count = y_test.size - n - k + 1
                    row = np.linalg.matrix_power(trans, k)[0]
                    pred = row[0] * means[:count] + row[1] * y_test[n - 1 : n - 1 + count]
                    target = x_test[n - 1 + k : n - 1 + k + count]
                    cells[(label, k)] = float(np.mean((target - pred) ** 2))
            table += [[n, k, cells[("hmm", k)], cells[("pmm", k)]] for k in EVAL_K]
        return np.array(table)

    def check_evaluate(stdout: str) -> None:
        out = json.loads(stdout)
        model_text = model.read_text()
        want = evaluate_reference(model_text)
        rows = read_table(table, "n,k,mse_hmm,mse_pmm")
        require(len(rows) == len(want), f"evaluate table has {len(rows)} rows, want {len(want)}")
        got = np.column_stack([column(rows, j) for j in range(4)])
        require(np.array_equal(got[:, :2], want[:, :2]), "evaluate grid differs")
        require_close("evaluate cells", got[:, 2:], want[:, 2:])
        p = params_tuple(json.loads(model_text)["params"])
        require(out["rows"] == len(want), "evaluate row count differs")
        require(out["pmm_wins"] == int(np.sum(got[:, 3] <= got[:, 2])), "pmm_wins differs")
        require_close(
            "hmm restriction", params_tuple(out["hmm_restriction"]), ref.hmm_restriction(p[0], p[1])
        )

    calls = [
        Call(
            "fit",
            ["fit", "--input", str(series), "--output", str(model), "--detrend",
             "--window", f"0:{half}"],
            check_fit,
        ),
        Call(
            "forecast",
            ["forecast", "--model", str(model), "--input", str(series),
             "--n", str(FORECAST_N), "--k", str(FORECAST_K), "--horizon-path",
             "--output", str(forecast_csv)],
            check_forecast,
        ),
        Call(
            "evaluate",
            ["evaluate", "--model", str(model), "--input", str(test),
             "--n-grid", ",".join(map(str, EVAL_N)), "--k-grid", ",".join(map(str, EVAL_K)),
             "--start-index", str(half), "--output", str(table)],
            check_evaluate,
        ),
    ]
    return Workload("series-pipeline", calls, [series, test])


# --- theory-sweep ----------------------------------------------------------


def theory_sweep(seed: int, work: Path) -> Workload:
    """The four preset figures, then fig4's filtering sweep to n = 400.

    The inputs are the bundled presets, so the seed changes nothing here.
    """
    del seed
    hmm = HMM_BASE

    @functools.cache
    def reference(true, n_values: tuple, k_values: tuple):
        exact = {
            "PMM": ref.forecaster_mse(true, true, n_values, k_values),
            "HMM": ref.forecaster_mse(true, hmm, n_values, k_values),
        }
        oracle = {
            (label, n, k): ref.oracle_mse(true, fc, n, k)
            for label, fc in (("PMM", true), ("HMM", hmm))
            for n in n_values
            for k in k_values
            if n + k <= ORACLE_MAX
        }
        return exact, oracle

    def make_check(path: Path, true, n_values, k_values, peak: float | None):
        n_values, k_values = tuple(n_values), tuple(k_values)
        # Sweeps run over k when the k grid has several values, else over n;
        # a k sweep over several n labels each curve with its n.
        over_k = len(k_values) > 1
        expected = {}
        for label in ("PMM", "HMM"):
            for n in n_values:
                for k in k_values:
                    name = f"{label}(n={n})" if over_k and len(n_values) > 1 else label
                    key = (name, "k", str(k)) if over_k else (name, "n", str(n))
                    expected[key] = (label, n, k)

        def check(stdout: str) -> None:
            out = json.loads(stdout)
            rows = read_table(path, "model,sweep,index,mse")
            got = dict(zip((tuple(r[:3]) for r in rows), column(rows, 3)))
            require(
                len(rows) == len(got) and got.keys() == expected.keys(),
                f"{path.name}: rows are not the {len(expected)} expected points",
            )
            exact, oracle = reference(true, n_values, k_values)
            keys = list(expected)
            require_close(
                f"{path.name} mse",
                [got[key] for key in keys],
                [exact[label][(n, k)] for label, n, k in expected.values()],
            )
            for key, (label, n, k) in expected.items():
                if n + k <= ORACLE_MAX:
                    require_close(f"{path.name} {key} vs oracle", got[key], oracle[(label, n, k)])
            if peak is not None:
                ratio = max(got[("HMM", "n", str(n))] / got[("PMM", "n", str(n))] for n in n_values)
                require(abs(ratio - peak) < 0.005, f"{path.name}: peak HMM/PMM ratio {ratio:.4f}, want {peak}")
            curves = 2 * len(n_values) if over_k and len(n_values) > 1 else 2
            require(out["curves"] == curves, "curve count differs")
            require_close("true params", params_tuple(out["true_params"]), true)
            require_close("hmm params", params_tuple(out["hmm_params"]), hmm)

        return check

    calls = []
    for fig, (true, n_values, k_values) in PRESETS.items():
        path = work / f"{fig}.csv"
        calls.append(
            Call(
                "figures",
                ["theoretical-mse", "--preset", fig, "--output", str(path)],
                make_check(path, true, n_values, k_values, PEAK_RATIO.get(fig)),
            )
        )
    path = work / "sweep.csv"
    calls.append(
        Call(
            "sweep",
            ["theoretical-mse", "--preset", "fig4", "--n-grid", f"1:{SWEEP_N[-1]}",
             "--output", str(path)],
            make_check(path, FIG4_TRUE, SWEEP_N, [0], PEAK_RATIO["fig4"]),
        )
    )
    return Workload("theory-sweep", calls, [])


# --- simulate-mc -----------------------------------------------------------


def simulate_mc(seed: int, work: Path) -> Workload:
    """Simulate a long trajectory, then Monte Carlo with the true forecaster
    and with its hidden-Markov restriction."""
    rng = np.random.default_rng([seed, 3])
    sim_seed, mc_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
    true = FIG4_TRUE
    hmm = ref.hmm_restriction(true[0], true[1])
    params, hmm_path = work / "params.json", work / "hmm.json"
    write_params(params, true)
    write_params(hmm_path, hmm)
    trajectory = work / "trajectory.csv"

    @functools.cache
    def sampled():
        from pmmkit.model import PmmParams
        from pmmkit.simulate import sample

        traj = sample(PmmParams(*true), SIMULATE_N, sim_seed)
        return np.column_stack([np.arange(1, SIMULATE_N + 1), traj.x, traj.y])

    def check_simulate(stdout: str) -> None:
        out = json.loads(stdout)
        want = sampled()
        require((out["n"], out["seed"], out["rng"]) == (SIMULATE_N, sim_seed, "numpy-pcg64"),
                "simulate echo differs")
        require_close(
            "empirical covariances",
            params_tuple(out["empirical_covariances"]),
            ref.lag_covariances(want[:, 1], want[:, 2]),
        )
        with open(trajectory) as fh:
            require(fh.readline().strip() == "t,x,y", "trajectory header is not t,x,y")
            got = np.loadtxt(fh, delimiter=",", ndmin=2)
        require(got.shape == want.shape, f"trajectory has shape {got.shape}, want {want.shape}")
        require(np.array_equal(got[:, 0], want[:, 0]), "trajectory t column differs")
        # Printed with 12 decimals in the mantissa: allow half a unit in the
        # last printed place, plus the rounding of parsing it back.
        magnitude = np.abs(want[:, 1:])
        exponent = np.floor(np.log10(np.maximum(magnitude, 1e-300)))
        slack = 0.5 * 10.0 ** (exponent - 12) + 4 * np.spacing(magnitude)
        bad = np.abs(got[:, 1:] - want[:, 1:]) > slack
        require(not bad.any(), f"trajectory differs from pmmkit.sample in {int(bad.sum())} values")

    def mc_check(fc) -> Callable[[str], None]:
        theory = ref.forecaster_mse(true, fc, [MC_N], [MC_K])[(MC_N, MC_K)]

        def check(stdout: str) -> None:
            out = json.loads(stdout)
            require(
                (out["n"], out["k"], out["reps"], out["seed"]) == (MC_N, MC_K, MC_REPS, mc_seed),
                "monte-carlo echo differs",
            )
            require_close("theoretical mse", out["theoretical_mse"], theory)
            require(out["stderr"] > 0, "monte-carlo stderr is not positive")
            z = abs(out["mse"] - theory) / out["stderr"]
            require(z <= MC_MAX_Z, f"monte-carlo |z| = {z:.2f} exceeds {MC_MAX_Z}")

        return check

    mc = ["monte-carlo", "--params", str(params), "--n", str(MC_N), "--k", str(MC_K),
          "--reps", str(MC_REPS), "--seed", str(mc_seed)]
    calls = [
        Call(
            "simulate",
            ["simulate", "--params", str(params), "--n", str(SIMULATE_N),
             "--seed", str(sim_seed), "--output", str(trajectory)],
            check_simulate,
        ),
        Call("monte_carlo", mc, mc_check(true)),
        Call("monte_carlo", mc + ["--forecaster-params", str(hmm_path)], mc_check(hmm)),
    ]
    return Workload("simulate-mc", calls, [params, hmm_path])


WORKLOADS = {
    "series-pipeline": series_pipeline,
    "theory-sweep": theory_sweep,
    "simulate-mc": simulate_mc,
}
