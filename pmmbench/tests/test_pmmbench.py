"""Tests of the benchmark's own code: span arithmetic, the correctness
checkers, seeding, and the result format.

Run from the repository root: python -m pytest pmmbench/tests
"""

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import reference as ref
import run
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def scripted_tracer(events):
    """A tracer whose clock reads 0, 1, 2, ... at each enter and exit."""
    ticks = iter(range(1000))
    tracer = layers.Tracer(clock=lambda: float(next(ticks)))
    stack = []
    for event in events:
        if event == "end":
            tracer.exit(stack.pop())
        else:
            stack.append(tracer.enter(event))
    return tracer


def test_self_time_subtracts_direct_children():
    # main [0,9] > evaluate [1,6] > batch [2,5] > kernel [3,4]; markov [7,8] in main
    tracer = scripted_tracer([
        "cli.main", "pipeline.evaluate", "filtering.batch_filter_means",
        "kernels.batch_filter_means", "end", "end", "end",
        "model.markov_form", "end", "end",
    ])
    out = layers.summarize(tracer)
    assert out["cli.main.s"] == 9
    assert out["cli.self_s"] == 9 - 5 - 1
    assert out["pipeline.evaluate.s"] == 5
    assert out["pipeline.evaluate.self_s"] == 5 - 3
    assert out["filtering.self_s"] == 3 - 1
    assert out["kernels.self_s"] == out["kernels.busy_s"] == 1
    assert out["model.markov_form.calls"] == 1
    assert out["covered_s"] == 9
    self_total = sum(out[f"{layer}.self_s"] for layer in layers.TARGETS)
    assert self_total == out["covered_s"]


def test_busy_time_counts_nested_spans_of_a_layer_once():
    # mse_sweep [0,7] > pmm [1,2], hmm [3,6] > markov [4,5]
    tracer = scripted_tracer([
        "error_analysis.mse_sweep", "error_analysis.theoretical_mse_pmm", "end",
        "error_analysis.theoretical_mse_hmm_under_pmm", "model.markov_form", "end", "end",
        "end",
    ])
    out = layers.summarize(tracer)
    assert out["error_analysis.busy_s"] == 7
    assert out["error_analysis.self_s"] == 7 - 1
    assert out["model.busy_s"] == 1
    assert out["error_analysis.theoretical_mse_hmm_under_pmm.calls"] == 1


def test_importtime_parse():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |     numpy._core\n"
        "import time:        50 |        150 |   numpy\n"
        "import time:        30 |         30 |     scipy.linalg\n"
        "import time:        20 |         50 |   scipy\n"
        "import time:        10 |        210 | pmmkit\n"
    )
    out = layers.parse_importtime(text)
    assert out == pytest.approx(
        {"import.pmmkit_s": 210e-6, "import.scipy_s": 50e-6, "import.numpy_s": 150e-6}
    )


def test_exact_mse_reference_matches_the_oracle():
    true, hmm = workloads.FIG4_TRUE, workloads.HMM_BASE
    exact = ref.forecaster_mse(true, hmm, range(1, 9), [0, 3])
    optimal = ref.forecaster_mse(true, true, range(1, 9), [0, 3])
    for n in range(1, 9):
        for k in (0, 3):
            assert ref.relative_error(exact[(n, k)], ref.oracle_mse(true, hmm, n, k)) < 1e-10
            assert ref.relative_error(optimal[(n, k)], ref.oracle_mse(true, true, n, k)) < 1e-10
    assert ref.relative_error(optimal[(8, 0)], ref.riccati(true, 8)[0][-1]) < 1e-12


@pytest.fixture
def small(monkeypatch):
    """Workload sizes small enough to run in-process in a test."""
    for name, value in {
        "SERIES_ROWS": 20_000, "FORECAST_N": 500, "FORECAST_K": 10,
        "SIMULATE_N": 2_000, "MC_REPS": 2_000,
    }.items():
        monkeypatch.setattr(workloads, name, value)


def run_in_process(call) -> str:
    import pmmkit.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert pmmkit.cli.main(call.argv) == 0
    return out.getvalue()


def changed_digit(text: str, line: int) -> str:
    """Change the first mantissa digit after the point on one line."""
    lines = text.splitlines(keepends=True)
    match = re.search(r"\d\.(\d)", lines[line])
    digit = match.group(1)
    pos = match.start(1)
    lines[line] = lines[line][:pos] + str((int(digit) + 5) % 10) + lines[line][pos + 1:]
    return "".join(lines)


def dropped_row(text: str, line: int) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:line] + lines[line + 1:])


def output_path(call) -> Path | None:
    if "--output" in call.argv:
        return Path(call.argv[call.argv.index("--output") + 1])
    return None


def assert_rejected(call, stdout: str) -> None:
    with pytest.raises(workloads.CheckError):
        call.check(stdout)


def first_line_with(text: str, needle: str) -> int:
    return next(i for i, line in enumerate(text.splitlines()) if needle in line)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checkers_accept_true_output_and_reject_perturbed(name, small, tmp_path):
    workload = workloads.WORKLOADS[name](7, tmp_path)
    for call in workload.calls:
        stdout = run_in_process(call)
        call.check(stdout)
        path = output_path(call)
        if path is None:  # monte-carlo reports on standard output only
            for key in ('"mse":', '"theoretical_mse":'):
                assert_rejected(call, changed_digit(stdout, first_line_with(stdout, key)))
            continue
        original = path.read_text()
        if path.suffix == ".csv":
            middle = len(original.splitlines()) // 2
            broken = [changed_digit(original, middle), dropped_row(original, middle)]
        else:  # the fitted-model file
            broken = [changed_digit(original, first_line_with(original, '"c":'))]
        for text in broken:
            path.write_text(text)
            assert_rejected(call, stdout)
        path.write_text(original)
        call.check(stdout)


def last_result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def run_benchmark(capsys, monkeypatch, *args) -> dict:
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_CALLS", 1)
    monkeypatch.setattr(run, "IMPORTTIME_CALLS", 1)
    assert run.main(list(args)) == 0
    return last_result(capsys)


def test_seed_changes_inputs_not_metric_names(small, capsys, monkeypatch, tmp_path):
    def inputs(name, seed):
        workload = workloads.WORKLOADS[name](seed, tmp_path)
        hashes = [workloads.file_provenance(p)["sha256"] for p in workload.inputs]
        return hashes, [call.argv for call in workload.calls]

    assert inputs("series-pipeline", 1)[0] != inputs("series-pipeline", 2)[0]
    assert inputs("simulate-mc", 1)[1] != inputs("simulate-mc", 2)[1]  # program seeds
    assert inputs("series-pipeline", 1) == inputs("series-pipeline", 1)
    names = []
    for seed in (1, 2):
        result = run_benchmark(capsys, monkeypatch, "--workload", "simulate-mc", "--seed",
                               str(seed), "--seconds", "0", "--trace", "0")
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        names.append(sorted(result["metrics"]))
    assert names[0] == names[1] == sorted(run.END_TO_END)


def test_result_metrics_match_benchmark_json(small, capsys, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == layers.metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    result = run_benchmark(capsys, monkeypatch, "--workload", "simulate-mc", "--seed", "3",
                           "--seconds", "0", "--trace", "1")
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    assert result["metrics"]["simulate.monte_carlo_mse.reps"]["value"] == 2 * workloads.MC_REPS


def test_refuses_to_run_without_the_source_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "theory-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
