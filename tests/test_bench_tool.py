"""``tools/bench.py`` and ``tools/launch.py`` on stubs: a stub ``run.py``,
stub probes that pass, fail, print a wrong output and time out, and quick
calibration loops.  The schema of BENCH_<label>.json and the flags of
``--compare`` are held here; the real probes are not run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# Prints some lines, then one JSON line whose wall_s is 0.1 + seed / 100;
# any other argv than the recorder's exits 2.
STUB_RUN_PY = """import json, sys
_, flag_w, workload, flag_s, seed, flag_t, seconds, flag_tr, trace = sys.argv
if (flag_w, flag_s, flag_t, flag_tr, trace) != ("--workload", "--seed", "--seconds", "--trace", "0"):
    sys.exit(2)
print("# stub", workload)
wall = 0.1 + int(seed) / 100
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"wall_s": {"value": wall, "unit": "s"},
                              "peak_rss_mb": {"value": 30.0, "unit": "MB"}}}))
"""


@pytest.fixture
def bench(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("pmmkit_bench_tool", TOOLS / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    stub = tmp_path / "run.py"
    stub.write_text(STUB_RUN_PY)
    python = [sys.executable, "-c"]

    def printed(stdout, work):
        module._require(stdout == "ok\n", f"printed {stdout!r}")

    monkeypatch.setattr(module, "RUN_PY", stub)
    monkeypatch.setattr(module, "WORKLOADS", ("theory-sweep",))
    monkeypatch.setattr(module, "TIMEOUT", 2.0)
    monkeypatch.setattr(module, "CALIBRATION", {"python_s": ("", "sum(range(1000))")})
    monkeypatch.setattr(module, "PROBES", {
        "ok": module.Probe(lambda work: python + ["print('ok')"], printed),
        "exit": module.Probe(lambda work: python + ["import sys; sys.exit(3)"], printed),
        "wrong": module.Probe(lambda work: python + ["print('no')"], printed),
        "slow": module.Probe(lambda work: python + ["import time; time.sleep(30)"], printed),
    })
    monkeypatch.chdir(tmp_path)
    return module


def test_record_schema_and_failed_probes(bench, tmp_path):
    assert bench.main(["--label", "stub", "--seeds", "1,3", "--seconds", "0.1"]) == 0
    out = json.loads((tmp_path / "BENCH_stub.json").read_text())
    assert set(out) == {"label", "provenance", "calibration", "workloads", "probes"}
    assert (out["provenance"]["seeds"], out["provenance"]["timeout"]) == ([1, 3], 2.0)
    assert {"commit", "python", "numpy", "openblas_core", "cpu_count", "affinity"} <= set(
        out["provenance"])
    calibration = out["calibration"]["python_s"]
    assert calibration["n"] == 10 and len(calibration["before"]) == 5
    workload = out["workloads"]["theory-sweep"]
    assert (workload["failed"], workload["attempted"]) == (0, 6)
    assert workload["metrics"]["wall_s"] == {
        "median": pytest.approx(0.12), "q1": pytest.approx(0.115), "q3": pytest.approx(0.125),
        "n": 2, "unit": "s"}
    probes = out["probes"]
    ok = probes["ok"]
    assert ok["failed"] == 0 and ok["command"].endswith("print('ok')")
    assert [sorted(run) for run in ok["runs"]] == [["cpu_s", "peak_rss_mib", "seed", "wall_s"]] * 2
    assert set(out["workloads"]) == {"theory-sweep"}
    assert set(probes) == {"ok", "exit", "wrong", "slow"}
    assert set(ok["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mib"}
    assert ok["metrics"]["peak_rss_mib"]["median"] > 0
    # A failing probe reports failed and its reason, never a time.
    for name, reason in (("exit", "exit 3"), ("wrong", "printed 'no\\n'"),
                         ("slow", "timed out after 2 s")):
        assert probes[name]["failed"] == 2 and probes[name]["metrics"] == {}
        for run in probes[name]["runs"]:
            assert reason in run["failed"] and "wall_s" not in run


def _file(wall, q, calibration=1.0, failed=0):
    metric = {"median": wall, "q1": wall - q, "q3": wall + q, "n": 3, "unit": "s"}
    return {"calibration": {"python_s": {"median": calibration}},
            "workloads": {"w": {"failed": failed, "metrics": {"wall_s": metric}}},
            "probes": {}}


@pytest.mark.parametrize(
    "old, new, flag",
    [
        (_file(1.0, 0.05), _file(1.05, 0.01), None),  # within the old IQR and 10%
        (_file(1.0, 0.01), _file(1.05, 0.01), "<< up +5.0%"),  # past the old IQR
        (_file(1.0, 0.3), _file(1.2, 0.01), "<< up +20.0%"),  # past 10%
        (_file(1.0, 0.01), _file(0.8, 0.01), "<< down -20.0%"),
        (_file(1.0, 0.01), _file(1.0, 0.01, calibration=1.2), "<< the box changed by +20%"),
        (_file(1.0, 0.01), _file(1.0, 0.01, failed=1), "1 failed  << failures"),
    ],
)
def test_compare_flags(bench, old, new, flag):
    lines = bench.compare(old, new)
    flagged = [line for line in lines if "<<" in line]
    assert flagged == [] if flag is None else len(flagged) == 1 and flagged[0].endswith(flag)


def test_compare_command_reads_two_files(bench, tmp_path, capsys):
    for name, wall in (("old", 1.0), ("new", 1.5)):
        (tmp_path / f"{name}.json").write_text(json.dumps(_file(wall, 0.01)))
    assert bench.main(["--compare", "old.json", "new.json"]) == 0
    assert "<< up +50.0%" in capsys.readouterr().out


def test_launcher_reports_the_child(tmp_path):
    code = "import sys; b = bytearray(64 << 20); print('out'); sys.exit(4)"
    done = subprocess.run(
        [sys.executable, "-S", str(TOOLS / "launch.py"), "--stdout", str(tmp_path / "o"),
         "--", sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 4
    report = json.loads(done.stdout)
    assert report["returncode"] == 4 and report["peak_rss_mib"] >= 64
    assert (tmp_path / "o").read_text() == "out\n"
