#!/usr/bin/env python3
"""pmmkit benchmark: closed-loop sessions of real CLI calls.

Run from the root of a pmmkit source tree:

    python3 pmmbench/run.py --workload series-pipeline --seed 1 --seconds 25 --trace 0

One client runs the workload's session again and again until ``--seconds``
have passed.  Each call is a fresh ``python -m pmmkit.cli`` child process,
run one at a time, because users pay interpreter start and import on every
call; ``os.wait4`` collects each child's CPU time and peak RSS.  Every call's
output is checked against an independent reference.

With ``--trace 0`` the run reports the end-to-end metrics, each a median
over the run's sessions.  With ``--trace 1`` it reports per-layer metrics:
import times from ``python -X importtime``, and spans recorded around
pmmkit's module boundaries while the same calls run in this process through
``pmmkit.cli.main``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, with provenance, is also written under ``.pmmbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

SETUP_CALLS = 5
IMPORTTIME_CALLS = 3
CALL_TIMEOUT_S = 150
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Session:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    workflows: dict = field(default_factory=dict)
    calls: list = field(default_factory=list)


class Runner:
    """Starts pmmkit children one at a time and tallies calls and failures."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.failures: list[str] = []

    def child(self, args: list[str]) -> Child:
        """Run ``python <args>`` to completion and collect its rusage."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=self.work
            )
            watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                watchdog.join()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            returncode=proc.returncode,
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
        )

    def verdict(self, what: str, returncode: int, stdout: str, stderr: str, check) -> None:
        self.attempted += 1
        if returncode != 0:
            self.failures.append(f"{what}: exit {returncode}: {stderr.strip()[-300:]}")
            return
        try:
            check(stdout)
        except Exception as exc:  # any checker crash is a failed call
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def cli(self, call: workloads.Call) -> Child:
        result = self.child(["-m", "pmmkit.cli", *call.argv])
        self.verdict(" ".join(call.argv[:1]), result.returncode, result.stdout,
                     result.stderr, call.check)
        return result

    def session(self, workload: workloads.Workload) -> Session:
        session = Session()
        for call in workload.calls:
            result = self.cli(call)
            session.wall += result.wall
            session.cpu += result.cpu
            session.rss_mb = max(session.rss_mb, result.rss_mb)
            session.calls.append((result.wall, result.cpu))
            session.workflows[call.workflow] = session.workflows.get(call.workflow, 0.0) + result.wall
        return session

    def setup_times(self) -> list[float]:
        """Wall time of ``pmmkit --version``: interpreter, import, parser."""
        def check(stdout: str) -> None:
            workloads.require(stdout.startswith("pmmkit "), f"unexpected version {stdout!r}")

        times = []
        for _ in range(SETUP_CALLS):
            result = self.child(["-m", "pmmkit.cli", "--version"])
            self.verdict("--version", result.returncode, result.stdout, result.stderr, check)
            times.append(result.wall)
        return times

    def import_times(self) -> dict[str, float]:
        runs = []
        for _ in range(IMPORTTIME_CALLS):
            result = self.child(["-X", "importtime", "-c", "import pmmkit"])
            self.verdict("importtime", result.returncode, "", result.stderr, lambda _: None)
            runs.append(layers.parse_importtime(result.stderr))
        return layers.median_dicts(runs)

    def in_process(self, workload: workloads.Workload, tracer=None) -> float:
        """One session through pmmkit.cli.main in this process; its wall time."""
        import pmmkit.cli

        if tracer is not None:
            tracer.install()
        try:
            wall = 0.0
            for call in workload.calls:
                out, err = io.StringIO(), io.StringIO()
                started = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = pmmkit.cli.main(call.argv)
                except Exception:  # an escaping exception is a failed call
                    code, err = 1, io.StringIO(traceback.format_exc())
                wall += time.perf_counter() - started
                self.verdict(f"in-process {call.argv[0]}", code, out.getvalue(),
                             err.getvalue(), call.check)
            return wall
        finally:
            if tracer is not None:
                tracer.uninstall()


def provenance(root: Path, seed: int, workload: workloads.Workload) -> dict:
    import numpy
    import scipy

    import pmmkit

    commit = None  # unknown outside a git checkout
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_commit": commit,
        "pmmkit": pmmkit.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": pmmkit.backend_name(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "seed": seed,
        "inputs": [workloads.file_provenance(p) for p in workload.inputs],
    }


def measure(runner: Runner, workload: workloads.Workload, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, untraced, and their sample counts."""
    setup = runner.setup_times()
    sessions = []
    started = time.perf_counter()
    while not sessions or time.perf_counter() - started < seconds:
        sessions.append(runner.session(workload))
    median = statistics.median
    metrics = {
        "setup_s": median(setup),
        "wall_s": median(s.wall for s in sessions),
        "cpu_s": median(s.cpu for s in sessions),
        "peak_rss_mb": median(s.rss_mb for s in sessions),
    }
    workflows = {
        f"{name}_s": median(s.workflows[name] for s in sessions)
        for name in dict.fromkeys(call.workflow for call in workload.calls)
    }
    return metrics, {
        "setup_calls": len(setup), "sessions": len(sessions), "workflows": workflows,
        "setup_walls": setup, "session_calls": [s.calls for s in sessions],
    }


def measure_layers(runner: Runner, workload: workloads.Workload, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: rounds of one subprocess session, one untraced and
    one traced in-process session, alternating which in-process side runs
    first; each metric is the median over rounds."""
    imports = runner.import_times()
    rounds, last = [], None
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        wall = runner.session(workload).wall
        tracer = layers.Tracer()
        if len(rounds) % 2:
            traced = runner.in_process(workload, tracer)
            plain = runner.in_process(workload)
        else:
            plain = runner.in_process(workload)
            traced = runner.in_process(workload, tracer)
        summary = layers.summarize(tracer)
        summary["trace.overhead_s"] = traced - plain
        calls = len(workload.calls)
        summary["trace.uncovered_s"] = wall - calls * imports["import.pmmkit_s"] - plain
        summary["wall_s"], summary["inproc_s"] = wall, plain
        rounds.append(summary)
        last = tracer
    units = layers.metric_units()
    merged = layers.median_dicts([{k: r.get(k, 0.0) for k in units} for r in rounds])
    merged.update(imports)
    # Counts repeat exactly from round to round; report them as integers.
    merged.update({k: int(v) for k, v in merged.items() if units[k] in ("count", "B")})
    extra = {"rounds": len(rounds), "spans": [vars(s) for s in last.spans]}
    for key in ("wall_s", "inproc_s"):
        extra[key] = statistics.median(r[key] for r in rounds)
    return merged, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "pmmkit" / "cli.py").is_file():
        raise HarnessError(f"no pmmkit source tree under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import pmmkit

    if Path(pmmkit.__file__).resolve().parent != (src / "pmmkit").resolve():
        raise HarnessError(f"imported pmmkit from {pmmkit.__file__}, not from {src}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".pmmbench" / "work" / f"{tag}-{os.getpid()}"
    out_dir = root / ".pmmbench" / "out"
    work.mkdir(parents=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        runner = Runner(root, work)
        runner.child(["-m", "pmmkit.cli", "--version"])  # warm the bytecode cache
        if args.trace:
            metrics, extra = measure_layers(runner, workload, args.seconds)
            units = layers.metric_units()
        else:
            metrics, extra = measure(runner, workload, args.seconds)
            units = END_TO_END
        prov = provenance(root, args.seed, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    spans = extra.pop("spans", None)
    (out_dir / f"{tag}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seconds": args.seconds, "extra": extra,
         "failures": runner.failures, "provenance": prov}, indent=2) + "\n")
    if spans is not None:
        (out_dir / f"{tag}.spans.json").write_text(json.dumps(spans) + "\n")

    print(f"# pmmbench {args.workload} seed={args.seed} trace={args.trace} "
          f"backend={prov['backend']} seconds={args.seconds:g}")
    samples = extra.get("sessions", extra.get("rounds"))
    for name, unit in units.items():
        note = f"median of {extra['setup_calls']} calls" if name == "setup_s" else (
            f"median of {samples} {'sessions' if args.trace == 0 else 'rounds'}")
        if name in layers.COMPUTED:
            note += ", computed from array sizes, not measured"
        print(f"{name:<46} {metrics[name]:>16.6f} {unit:<8} {note}")
    for name, value in extra.get("workflows", {}).items():
        print(f"{name:<46} {value:>16.6f} {'s':<8} median of {samples} sessions")
    print(f"{'error_rate':<46} {failed / runner.attempted:>16.6f} "
          f"({failed} of {runner.attempted} calls failed)")
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    print(f"# provenance {json.dumps(prov)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"pmmbench: {exc}", file=sys.stderr)
        sys.exit(2)
