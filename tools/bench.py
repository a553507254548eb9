"""Record the benchmark and the user-sized probes as BENCH_<label>.json, and
compare two such files.  Stdlib only; run from the repository root.

    python3 tools/bench.py --label NAME [--seeds 1,2,3] [--seconds 6]
    python3 tools/bench.py --compare BENCH_old.json BENCH_new.json

For each seed, a record runs:
- ``pmmbench/run.py --workload W --seed S --seconds T --trace 0``, unchanged,
  for each of WORKLOADS, and keeps the JSON result on its last line;
- each of PROBES, a ``pmmkit`` command on a user-sized input, as the only child
  of ``python3 -S tools/launch.py``, which reads its CPU time and peak RSS
  from ``RUSAGE_CHILDREN``.  A probe then checks its output: the exit code,
  the row count and, for the theory, a few points against
  ``forecaster_mse`` to 1e-12.  A probe that fails or times out records
  ``failed`` and its reason, not a time.
A run or a probe may take TIMEOUT seconds.
A calibration, a fixed pure-Python loop and a fixed numpy loop each in its
own child, is timed before and after the runs: it says how fast the box was.

The file holds, per metric, the median and quartiles over the seeds, every
run, and the provenance: commit, Python, numpy, the OpenBLAS core, the CPU
count and affinity, and the settings.

``--compare`` prints new/old per metric.  It flags a move that exceeds the
old file's interquartile range or 10% of the old median, any failure in
the new file, and a calibration that moved by more than 15%, since then
the box changed and no ratio between the files can be trusted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

RUN_PY = Path("pmmbench/run.py")
LAUNCH_PY = Path(__file__).resolve().with_name("launch.py")
WORKLOADS = ("series-pipeline", "theory-sweep", "simulate-mc")
TRUE = Path("tests/golden/true.json")  # fig2's model
TIMEOUT = 600.0
MOVE, CALIBRATION_MOVE = 0.10, 0.15

# Name -> (set-up, loop).  Each loop runs five times after its set-up in
# its own child, which prints the five times.
CALIBRATION = {
    "python_s": ("", "s = 0\nfor i in range(2_000_000):\n    s += i * i"),
    "numpy_s": ("import numpy as np\na = np.arange(1_000_000, dtype=float)",
                "for _ in range(100):\n    (a * a).sum()"),
}
_TIMED = """import time
{setup}
loop, times = compile({loop!r}, "loop", "exec"), []
for _ in range(5):
    start = time.perf_counter()
    exec(loop)
    times.append(time.perf_counter() - start)
print(times)
"""


class ProbeError(Exception):
    """A probe's output is not what its command promises."""


class Probe(NamedTuple):
    """``command(work)`` gives the argv, making any input it needs in
    ``work`` first; ``check(stdout, work)`` raises ProbeError on a wrong
    output."""

    command: Callable[[Path], list[str]]
    check: Callable[[str, Path], None]


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path.cwd() / "src")}


def _cli(*args) -> list[str]:
    return [sys.executable, "-m", "pmmkit.cli", *map(str, args)]


def _series(work: Path, rows: int) -> Path:
    """A trajectory of fig2's model (``tests/golden/true.json``) with
    ``rows`` rows, made once per record by ``pmmkit simulate``."""
    path = work / f"series-{rows}.csv"
    if not path.exists():
        subprocess.run(_cli("simulate", "--params", TRUE, "--n", rows,
                            "--seed", 7, "--output", path),
                       env=_env(), check=True, stdout=subprocess.DEVNULL)
    return path


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ProbeError(what)


def _data_rows(path: Path) -> int:
    """The lines of a CSV after its header, counted a block at a time."""
    lines = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            lines += block.count(b"\n")
    return lines - 1


def _rows(output: str, rows: int, key: str | None = None) -> Callable[[str, Path], None]:
    """A check that ``output`` in the work directory holds ``rows`` data
    rows, and that the JSON summary's ``key``, if given, says so too."""
    def check(stdout: str, work: Path) -> None:
        if key is not None:
            _require(json.loads(stdout)[key] == rows, f"summary {key} is not {rows}")
        got = _data_rows(work / output)
        _require(got == rows, f"{output} has {got} data rows, not {rows}")
    return check


def _theory(preset: str, n_values: range, k_values: range) -> Probe:
    """``theoretical-mse`` on a grid: 2 |n| |k| rows, of which the first,
    the last and a few between match ``forecaster_mse`` to 1e-12."""
    def command(work: Path) -> list[str]:
        grid = [f"{r.start}:{r.stop - 1}" if len(r) > 1 else str(r.start)
                for r in (n_values, k_values)]
        return _cli("theoretical-mse", "--preset", preset, "--n-grid", grid[0],
                    "--k-grid", grid[1], "--output", work / "theory.csv")

    def check(stdout: str, work: Path) -> None:
        sys.path.insert(0, str(Path.cwd() / "src"))
        try:
            from pmmkit import forecaster_mse, get_preset
        finally:
            sys.path.pop(0)
        rows = 2 * len(n_values) * len(k_values)
        _rows("theory.csv", rows)(stdout, work)
        wanted = {1, rows // 3, rows // 2 + 1, rows}
        fig = get_preset(preset)
        with open(work / "theory.csv") as fh:
            for i, line in enumerate(fh):
                if i not in wanted:
                    continue
                model, sweep, index, mse = line.split(",")
                label, _, fixed_n = model.partition("(n=")
                n, k = (int(index), k_values[0]) if sweep == "n" else (
                    int(fixed_n[:-1]) if fixed_n else n_values[0], int(index))
                p_fc = fig.true_params if label == "PMM" else fig.hmm_reference
                want = forecaster_mse(fig.true_params, p_fc, [n], [k])[(n, k)]
                _require(abs(float(mse) - want) <= 1e-12 * abs(want),
                         f"row {i} ({line.strip()}) is not forecaster_mse's {want!r}")

    return Probe(command, check)


def _monte_carlo(stdout: str, work: Path) -> None:
    out = json.loads(stdout)
    z = abs(out["mse"] - out["theoretical_mse"]) / out["stderr"]
    _require(z < 6.0, f"Monte Carlo MSE is {z:.1f} standard errors from the theory")


def _fit(stdout: str, work: Path) -> None:
    params = json.loads(stdout)["params"]
    _require(sorted(params) == list("abcde"), f"fit printed params {params}")
    _require(json.loads((work / "model.json").read_text())["params"] == params,
             "model.json holds other parameters than fit printed")


# ROADMAP item 23's table, and fig3's square grid: the user-sized inputs,
# where memory and time grow with the input rather than with start-up.  The
# table's `forecast --horizon-path` row (1.6 GiB at k = 10^6, most of it the
# JSON summary of every horizon) waits until that path streams its rows.
PROBES = {
    "simulate-1e7": Probe(
        lambda work: _cli("simulate", "--params", TRUE, "--n", 10**7, "--seed", 1,
                          "--output", work / "sim.csv"),
        _rows("sim.csv", 10**7, "n")),
    "simulate-3e6": Probe(
        lambda work: _cli("simulate", "--params", TRUE, "--n", 3 * 10**6, "--seed", 1,
                          "--output", work / "sim.csv"),
        _rows("sim.csv", 3 * 10**6, "n")),
    "theory-k-sweep": _theory("fig2", range(100, 101), range(1, 10**6 + 1)),
    "theory-n-sweep": _theory("fig4", range(1, 10**6 + 1), range(0, 1)),
    "theory-square": _theory("fig3", range(1, 1001), range(1, 1001)),
    "monte-carlo": Probe(
        lambda work: _cli("monte-carlo", "--params", TRUE, "--n", 10**6, "--k", 10**6,
                          "--reps", 100, "--seed", 1),
        _monte_carlo),
    "evaluate": Probe(
        lambda work: _cli("evaluate", "--model", TRUE, "--input", _series(work, 150_000),
                          "--n-grid", "1:20", "--k-grid", "1:200", "--output",
                          work / "table.csv"),
        _rows("table.csv", 4000, "rows")),
    "fit-window": Probe(
        lambda work: _cli("fit", "--detrend", "--window", "0:150000", "--input",
                          _series(work, 300_000), "--output", work / "model.json"),
        _fit),
}


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of ``values``."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _child(args: list[str], timeout: float, env: dict | None = None):
    return subprocess.run(args, capture_output=True, text=True, timeout=timeout,
                          env=env or _env())


def calibrate() -> dict[str, list[float] | None]:
    """The five times of each calibration loop; None where it cannot run
    (numpy not installed)."""
    out = {}
    for name, (setup, loop) in CALIBRATION.items():
        done = _child([sys.executable, "-c", _TIMED.format(setup=setup, loop=loop)], 600)
        out[name] = json.loads(done.stdout) if done.returncode == 0 else None
    return out


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` run: its last line, or ``failed`` and the reason."""
    args = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        done = _child(args, TIMEOUT, env=dict(os.environ))
    except subprocess.TimeoutExpired:
        return {"seed": seed, "failed": f"timed out after {TIMEOUT:g} s"}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "failed": f"exit {done.returncode}: {done.stderr.strip()[-300:]}"}
    return {"seed": seed, **result}


def run_probe(probe: Probe, work: Path) -> dict:
    """One probe under the launcher: its command, with the work directory
    as $WORK and this interpreter as python, and its figures or ``failed``
    and the reason."""
    command = [str(arg) for arg in probe.command(work)]
    shown = " ".join("python" if arg == sys.executable else arg for arg in command)
    shown = {"command": shown.replace(str(work), "$WORK")}
    stdout = work / "stdout.txt"
    args = [sys.executable, "-S", str(LAUNCH_PY), "--timeout", str(TIMEOUT),
            "--stdout", str(stdout), "--", *command]
    try:
        done = _child(args, TIMEOUT + 60)
        report = json.loads(done.stdout.strip().splitlines()[-1])
        if report["returncode"] is None:
            raise ProbeError(f"timed out after {TIMEOUT:g} s")
        if report["returncode"] != 0:
            raise ProbeError(f"exit {report['returncode']}: {done.stderr.strip()[-300:]}")
        probe.check(stdout.read_text(), work)
    except (ProbeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError,
            IndexError) as exc:
        return {**shown, "failed": f"{type(exc).__name__}: {exc}"}
    return {**shown, **{key: report[key] for key in ("wall_s", "cpu_s", "peak_rss_mib")}}


def _provenance(args) -> dict:
    def output(argv: list[str], env: dict | None = None) -> str | None:
        """stdout, then stderr, of a command that exits 0."""
        try:
            done = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout + done.stderr if done.returncode == 0 else None

    # OpenBLAS names the core it chose when OPENBLAS_VERBOSE=2.
    numpy = output([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                   {**os.environ, "OPENBLAS_VERBOSE": "2"})
    lines = (numpy or "").splitlines()
    core = next((line[5:].strip() for line in lines if line.startswith("Core:")), None)
    version = next((line for line in lines if line and not line.startswith("Core:")), None)
    status = output(["git", "status", "--porcelain", "--untracked-files=no"])
    commit = output(["git", "rev-parse", "HEAD"])
    return {
        "commit": commit.strip() if commit else None,
        "dirty": bool(status) if status is not None else None,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "numpy": version,
        "openblas_core": core,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "timeout": TIMEOUT,
    }


def record(args) -> dict:
    before = calibrate()
    workloads = {w: [] for w in WORKLOADS}
    probes = {p: [] for p in PROBES}
    with tempfile.TemporaryDirectory(prefix="bench-probes-") as tmp:
        work = Path(tmp)
        for seed in args.seeds:
            for workload in WORKLOADS:
                workloads[workload].append(run_workload(workload, seed, args.seconds))
            for name, probe in PROBES.items():
                probes[name].append({"seed": seed, **run_probe(probe, work)})
                for path in work.iterdir():  # outputs only: the inputs serve every seed
                    if not path.name.startswith("series-"):
                        path.unlink()
    after = calibrate()
    calibration = {}
    for name in CALIBRATION:
        times = (before[name] or []) + (after[name] or [])
        calibration[name] = ({**summary(times), "before": before[name], "after": after[name]}
                             if times else None)
    out = {"label": args.label, "provenance": _provenance(args), "calibration": calibration,
           "workloads": {}, "probes": {}}
    for workload, runs in workloads.items():
        good = [r for r in runs if r.get("correct") is True]
        units = {m: v["unit"] for r in good for m, v in r["metrics"].items()}
        out["workloads"][workload] = {
            "failed": sum(int(r.get("failed", 0)) if "metrics" in r else 1 for r in runs),
            "attempted": sum(int(r.get("attempted", 0)) for r in runs),
            "metrics": {m: {**summary([r["metrics"][m]["value"] for r in good]), "unit": u}
                        for m, u in units.items()},
            "runs": runs,
        }
    for name, runs in probes.items():
        commands = {run.pop("command") for run in runs}  # one: the seed is not in it
        good = [r for r in runs if "failed" not in r]
        out["probes"][name] = {
            "command": commands.pop(),
            "failed": len(runs) - len(good),
            "metrics": {m: {**summary([r[m] for r in good]), "unit": u}
                        for m, u in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"))}
                       if good else {},
            "runs": runs,
        }
    return out


def compare(old: dict, new: dict) -> list[str]:
    """One line per metric and calibration in both files; a flagged line
    ends in ``<<`` and its reason."""
    lines = []
    for name in CALIBRATION:
        o, n = old["calibration"].get(name), new["calibration"].get(name)
        if o and n:
            ratio = n["median"] / o["median"]
            flag = ""
            if abs(ratio - 1) > CALIBRATION_MOVE:
                flag = f"  << the box changed by {ratio - 1:+.0%}"
            lines.append(f"calibration {name:<24} {o['median']:>12.4g} {n['median']:>12.4g} "
                         f"{ratio:>7.3f}{flag}")
    for kind in ("workloads", "probes"):
        for group in sorted(set(old[kind]) & set(new[kind])):
            o_group, n_group = old[kind][group], new[kind][group]
            if n_group["failed"]:
                lines.append(f"{kind[:-1]} {group}: {n_group['failed']} failed  << failures")
            for metric in sorted(set(o_group["metrics"]) & set(n_group["metrics"])):
                o, n = o_group["metrics"][metric], n_group["metrics"][metric]
                move = n["median"] - o["median"]
                ratio = n["median"] / o["median"] if o["median"] else float("inf")
                flag = ""
                if abs(move) > min(o["q3"] - o["q1"], MOVE * abs(o["median"])):
                    flag = f"  << {'up' if move > 0 else 'down'} {ratio - 1:+.1%}"
                lines.append(f"{group + ' ' + metric:<36} {o['median']:>12.4g} "
                             f"[{o['q1']:.4g}, {o['q3']:.4g}] {n['median']:>12.4g} "
                             f"{ratio:>7.3f}{flag}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="record, and write BENCH_<label>.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--seeds", default="1,2,3",
                        type=lambda text: [int(s) for s in text.split(",")])
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args(argv)
    if bool(args.label) == bool(args.compare):
        parser.error("give --label or --compare")
    if args.compare:
        old, new = (json.loads(Path(path).read_text()) for path in args.compare)
        print(f"{'metric':<36} {'old median':>12} [old q1, q3] {'new median':>12} {'ratio':>7}")
        print("\n".join(compare(old, new)))
        return 0
    result = record(args)
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
