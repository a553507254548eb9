"""The golden-output corpus: every subcommand's files and stdout summary on
small fixed inputs, kept in ``tests/golden/``.

    python tests/golden.py           # rerun and compare
    python tests/golden.py --write   # regenerate the corpus

``run`` writes the inputs into a directory and runs every command of
COMMANDS there through ``pmmkit.cli.main``, so each stdout summary names
its files by relative path; ``name.stdout.json`` holds the summary of
command ``name``.  ``compare`` holds a rerun to the corpus: the same files
with the same lines, the text between numbers equal, each number laid out
alike (sign, digit count, exponent form) and within relative RTOL of the
stored one, which lets a 17-digit JSON number move in its last digits but
not a CSV number printed with 13 (one unit in its last digit is more than
RTOL).  It also counts the lines that differ byte for byte.

Regenerating the corpus is an output change: the change that does it names
each file that changed and says why.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-13

# The fig2 true model and its hidden-Markov restriction.
INPUTS = {
    "true.json": json.dumps({"a": 0.9, "b": -0.2, "c": 0.036, "d": -0.18, "e": -0.58}),
    "hmm.json": json.dumps({"a": 0.9, "b": -0.2, "c": 0.036, "d": -0.18, "e": -0.18}),
    # A perfectly alternating pair: its lag-one covariance estimate is
    # inadmissible, so fit shrinks it and records "repaired": true.
    "alternating.csv": "x,y\n" + "1,1\n-1,-1\n" * 30,
}

COMMANDS = [
    *(
        (fig, ["theoretical-mse", "--preset", fig, "--output", f"{fig}.csv"])
        for fig in ("fig2", "fig3", "fig4", "fig5")
    ),
    # series.csv is also the input of the commands after it.
    ("simulate", ["simulate", "--params", "true.json", "--n", "2000", "--seed", "7",
                  "--output", "series.csv"]),
    ("fit", ["fit", "--input", "series.csv", "--detrend", "--window", "200:1800",
             "--output", "model.json"]),
    ("forecast", ["forecast", "--model", "model.json", "--input", "series.csv",
                  "--n", "50", "--k", "24", "--horizon-path", "--output", "forecast.csv"]),
    ("evaluate", ["evaluate", "--model", "model.json", "--input", "series.csv",
                  "--n-grid", "5,20,50", "--k-grid", "1,6,24", "--start-index", "12",
                  "--output", "table.csv"]),
    ("repaired", ["fit", "--input", "alternating.csv", "--output", "repaired.json"]),
    ("monte-carlo", ["monte-carlo", "--params", "true.json", "--forecaster-params",
                     "hmm.json", "--n", "10", "--k", "5", "--reps", "2000", "--seed", "3"]),
    ("oracle-k0", ["oracle", "--params", "true.json", "--input", "series.csv",
                   "--n", "8", "--k", "0"]),
    ("oracle-k4", ["oracle", "--params", "true.json", "--input", "series.csv",
                   "--n", "8", "--k", "4"]),
]

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run(directory: Path) -> None:
    """Write INPUTS into ``directory`` and run every command there."""
    from pmmkit.cli import main

    for name, text in INPUTS.items():
        (directory / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, argv in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"{name}: pmmkit {' '.join(argv)} exited {code}")
            Path(f"{name}.stdout.json").write_text(out.getvalue())
    finally:
        os.chdir(cwd)


def compare(got: Path, want: Path = GOLDEN) -> tuple[list[str], int, int]:
    """The differences of ``got`` from ``want`` beyond the corpus rule, the
    number of lines that differ byte for byte, and the number of lines."""
    problems: list[str] = []
    names = sorted(p.name for p in want.iterdir())
    if names != sorted(p.name for p in got.iterdir()):
        problems.append(f"files {sorted(p.name for p in got.iterdir())}, want {names}")
    differing = total = 0
    for name in names:
        if not (got / name).exists():
            continue
        got_lines = (got / name).read_text().splitlines()
        want_lines = (want / name).read_text().splitlines()
        total += len(want_lines)
        if len(got_lines) != len(want_lines):
            problems.append(f"{name}: {len(got_lines)} lines, want {len(want_lines)}")
            continue
        for i, (line, ref) in enumerate(zip(got_lines, want_lines), start=1):
            if line == ref:
                continue
            differing += 1
            if not _close(line, ref):
                problems.append(f"{name}:{i}: {line!r}, want {ref!r}")
    return problems, differing, total


def _close(line: str, ref: str) -> bool:
    numbers, ref_numbers = NUMBER.findall(line), NUMBER.findall(ref)
    return (
        NUMBER.split(line) == NUMBER.split(ref)
        and len(numbers) == len(ref_numbers)
        and all(
            _layout(a) == _layout(b)
            and math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=0.0)
            for a, b in zip(numbers, ref_numbers)
        )
    )


def _layout(number: str) -> str:
    return re.sub(r"\d", "0", number)


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        GOLDEN.mkdir(exist_ok=True)
        for path in GOLDEN.iterdir():
            path.unlink()
        run(GOLDEN)
        size = sum(p.stat().st_size for p in GOLDEN.iterdir())
        print(f"wrote {len(list(GOLDEN.iterdir()))} files, {size} bytes, to {GOLDEN}")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        run(Path(tmp))
        problems, differing, total = compare(Path(tmp))
    for problem in problems:
        print(problem)
    print(f"{differing} of {total} lines differ byte for byte; {len(problems)} beyond the rule")
    return 1 if problems else 0


if __name__ == "__main__":
    # This checkout's package, not an installed one.
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
