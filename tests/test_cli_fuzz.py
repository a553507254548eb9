"""Generated parameter files, model files, series CSV and flag values fed to
``pmmkit.cli.main`` in-process.

Every call must either exit 0 with strict JSON on stdout whose numbers are
all finite and with every output file written, or exit 1 with one
``{"error", "message"}`` line on stderr, nothing on stdout, no warning and
no file left behind in its directory.  Half the examples draw every input
from a strategy that should succeed, so that both exits are exercised.
Text flags are passed either as ``--flag=value`` or as two words.  Inputs
stay small (at most 80 rows, 300 steps or replicates), so the suite takes
a few seconds.
"""

import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmmkit.cli import main

FUZZ = settings(max_examples=50, deadline=None, derandomize=True)

KEYS = ("a", "b", "c", "d", "e")
# Near the hidden-Markov form, so nearly always admissible.
GOOD_PARAMS = st.builds(
    lambda a, b, dd, de: {"a": a, "b": b, "c": a * b * b, "d": a * b + dd, "e": a * b + de},
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
    st.floats(-0.05, 0.05),
    st.floats(-0.05, 0.05),
)
VALUE = st.one_of(
    st.floats(-0.95, 0.95), st.floats(), st.integers(-2, 2), st.text(max_size=3), st.none()
)
BAD_PARAMS = st.one_of(
    st.fixed_dictionaries({k: VALUE for k in KEYS}),
    st.dictionaries(st.sampled_from(KEYS), VALUE),
    st.lists(st.floats(-1, 1), max_size=5),
)
# Cells are written with repr, so every float round-trips.
GOOD_ROWS = st.lists(
    st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=30, max_size=80
).map(lambda rows: [(repr(x), repr(y)) for x, y in rows])
CELL = st.one_of(
    st.floats(-10, 10).map(repr),
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(["nan", "inf", "", "abc", '"1.5"']),
)
BAD_ROWS = st.lists(st.tuples(CELL, CELL), max_size=80)
GOOD_MOMENTS = st.fixed_dictionaries({"mean": st.floats(-2, 2), "std": st.floats(0.1, 3)})
BAD_MOMENTS = st.fixed_dictionaries({"mean": VALUE, "std": VALUE})


def _model(params, moments, periods):
    detrend = st.fixed_dictionaries(
        {
            "theta": st.lists(st.floats(-3, 3), min_size=5, max_size=5),
            "periods": st.lists(periods, min_size=2, max_size=2),
            "sigma": st.floats(0.1, 3),
        }
    )
    return st.fixed_dictionaries(
        {
            "params": params,
            "x_standardize": moments,
            "y_standardize": moments,
            "detrend": st.one_of(st.none(), detrend),
        }
    )


GOOD_MODEL = _model(GOOD_PARAMS, GOOD_MOMENTS, st.floats(2, 1e4))
BAD_MODEL = _model(BAD_PARAMS, BAD_MOMENTS, st.floats(0.5, 1e4))


def _grid(values):
    return st.lists(values, min_size=1, max_size=4).map(lambda v: ",".join(map(str, v)))


BAD_GRID = st.one_of(
    _grid(st.integers(-1, 90)),
    st.tuples(st.integers(-1, 20), st.integers(-1, 90)).map(lambda r: f"{r[0]}:{r[1]}"),
    st.text(alphabet="0123456789,:x -", max_size=6),
)


def _cases(**fields):
    """Each field is (good, bad).  Half the cases draw every field from its
    good strategy; the rest draw each field from either."""
    return st.one_of(
        st.fixed_dictionaries({k: good for k, (good, _) in fields.items()}),
        st.fixed_dictionaries({k: st.one_of(*pair) for k, pair in fields.items()}),
    )


SEED = (st.integers(0, 2**40), st.integers(-2, -1))


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _run(directory, inputs, argv, outputs):
    """Write ``inputs`` (name -> text) into ``directory``, run the CLI on
    ``argv`` and check the exit contract; ``outputs`` are the file names the
    call writes when it succeeds."""
    for name, text in inputs.items():
        (directory / name).write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([str(a) for a in argv])
    # A child process would print each warning as more lines on stderr.
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        payload = json.loads(stdout.getvalue(), parse_constant=_reject_constant)
        assert _finite_numbers(payload), payload
        for name in outputs:
            assert (directory / name).is_file(), name
    else:
        assert code == 1
        assert stdout.getvalue() == ""
        [line] = stderr.getvalue().splitlines()
        error = json.loads(line)
        assert set(error) == {"error", "message"}
        assert sorted(p.name for p in directory.iterdir()) == sorted(inputs)


def _text_flag(flag, value, joined):
    """``flag`` and its text ``value`` as one ``--flag=value`` word or two;
    as two words, a value that starts with ``-`` is a usage error."""
    return [f"{flag}={value}"] if joined else [flag, value]


# Whether text flags are passed as one word or two.
JOINED = (st.booleans(), st.booleans())


def _csv(rows, header="x,y"):
    return header + "\n" + "".join(f"{x},{y}\n" for x, y in rows)


@FUZZ
@given(
    case=_cases(
        params=(GOOD_PARAMS, BAD_PARAMS),
        n=(st.integers(2, 300), st.integers(-2, 1)),
        seed=SEED,
    )
)
# Once a file left behind by a failed call, and an overflow warning.
@example(case={"params": dict.fromkeys(KEYS, 0.0), "n": 1, "seed": 0})
@example(case={"params": dict.fromkeys(KEYS, 0.0) | {"e": 1e154}, "n": 10, "seed": 0})
def test_simulate(tmp_path_factory, case):
    d = tmp_path_factory.mktemp("simulate")
    _run(
        d,
        {"p.json": json.dumps(case["params"])},
        ["simulate", "--params", d / "p.json", "--n", case["n"],
         "--seed", case["seed"], "--output", d / "t.csv"],
        ["t.csv"],
    )


@FUZZ
@given(
    case=_cases(
        rows=(GOOD_ROWS, BAD_ROWS),
        periods=(
            st.one_of(st.none(), st.just("24,8772")),
            st.one_of(
                st.tuples(st.floats(0.5, 200), st.floats(0.5, 200)).map(
                    lambda p: f"{p[0]!r},{p[1]!r}"
                ),
                st.text(alphabet="0123456789,.x", max_size=6),
                st.sampled_from(["nan,24", "24,inf", "inf,inf", "-inf,24", "nan,nan"]),
            ),
        ),
        window=(
            st.one_of(st.none(), st.just("0:30")),
            st.one_of(
                st.tuples(st.integers(-5, 90), st.integers(-5, 90)).map(
                    lambda w: f"{w[0]}:{w[1]}"
                ),
                st.text(alphabet="0123456789:x", max_size=5),
            ),
        ),
        joined=JOINED,
    )
)
# Once argparse's usage text for a separate value starting with "-", and
# LAPACK's complaint about a nan period.
@example(case={"rows": [("0.5", "1.5")] * 30, "periods": None, "window": "-1:0",
               "joined": False})
@example(case={"rows": [("0.5", "1.5")] * 30, "periods": "nan,24", "window": None,
               "joined": True})
def test_fit(tmp_path_factory, case):
    d = tmp_path_factory.mktemp("fit")
    argv = ["fit", "--input", d / "s.csv", "--output", d / "m.json"]
    if case["periods"] is not None:
        argv += ["--detrend", *_text_flag("--periods", case["periods"], case["joined"])]
    if case["window"] is not None:
        argv += _text_flag("--window", case["window"], case["joined"])
    _run(d, {"s.csv": _csv(case["rows"])}, argv, ["m.json"])


@FUZZ
@given(
    case=_cases(
        model=(GOOD_MODEL, BAD_MODEL),
        bare=(st.booleans(), st.booleans()),
        rows=(GOOD_ROWS, BAD_ROWS),
        n=(st.integers(1, 30), st.integers(-2, 120)),
        k=(st.integers(0, 200), st.integers(-2, -1)),
        horizon_path=(st.booleans(), st.booleans()),
        start_index=(st.integers(0, 10_000), st.integers(-3, -1)),
        output=(st.booleans(), st.booleans()),
    )
)
def test_forecast(tmp_path_factory, case):
    d = tmp_path_factory.mktemp("forecast")
    model = d / ("p.json" if case["bare"] else "m.json")
    argv = ["forecast", "--model", model, "--input", d / "s.csv", "--n", case["n"],
            "--k", case["k"], "--start-index", case["start_index"]]
    if case["horizon_path"]:
        argv.append("--horizon-path")
    if case["output"]:
        argv += ["--output", d / "f.csv"]
    inputs = {
        "p.json": json.dumps(case["model"]["params"]),
        "m.json": json.dumps(case["model"]),
        # forecast reads the y column only, whatever else the file holds.
        "s.csv": _csv(case["rows"], "t,y" if case["horizon_path"] else "x,y"),
    }
    _run(d, inputs, argv, ["f.csv"] if case["output"] else [])


@FUZZ
@given(
    case=_cases(
        model=(GOOD_MODEL, BAD_MODEL),
        rows=(GOOD_ROWS, BAD_ROWS),
        n_grid=(_grid(st.integers(1, 10)), BAD_GRID),
        k_grid=(_grid(st.integers(0, 10)), BAD_GRID),
        start_index=(st.integers(0, 10_000), st.integers(-3, -1)),
        joined=JOINED,
    )
)
@example(
    case={
        "model": {
            "params": dict.fromkeys(KEYS, 0.0),
            "x_standardize": {"mean": 0.0, "std": 1.0},
            "y_standardize": {"mean": 0.0, "std": 1.0},
            "detrend": None,
        },
        "rows": [("0.5", "1.5")] * 30,
        "n_grid": "-:",
        "k_grid": "1",
        "start_index": 0,
        "joined": False,
    }
)
def test_evaluate(tmp_path_factory, case):
    d = tmp_path_factory.mktemp("evaluate")
    _run(
        d,
        {"m.json": json.dumps(case["model"]), "s.csv": _csv(case["rows"])},
        ["evaluate", "--model", d / "m.json", "--input", d / "s.csv",
         *_text_flag("--n-grid", case["n_grid"], case["joined"]),
         *_text_flag("--k-grid", case["k_grid"], case["joined"]),
         "--start-index", case["start_index"], "--output", d / "table.csv"],
        ["table.csv"],
    )


@FUZZ
@given(
    case=_cases(
        params=(GOOD_PARAMS, BAD_PARAMS),
        forecaster=(st.one_of(st.none(), GOOD_PARAMS), BAD_PARAMS),
        n=(st.integers(1, 60), st.integers(-2, 0)),
        k=(st.integers(0, 30), st.integers(-2, -1)),
        reps=(st.integers(2, 300), st.integers(-2, 1)),
        seed=SEED,
    )
)
def test_monte_carlo(tmp_path_factory, case):
    d = tmp_path_factory.mktemp("monte-carlo")
    inputs = {"p.json": json.dumps(case["params"])}
    argv = ["monte-carlo", "--params", d / "p.json", "--n", case["n"],
            "--k", case["k"], "--reps", case["reps"], "--seed", case["seed"]]
    if case["forecaster"] is not None:
        inputs["f.json"] = json.dumps(case["forecaster"])
        argv += ["--forecaster-params", d / "f.json"]
    _run(d, inputs, argv, [])
