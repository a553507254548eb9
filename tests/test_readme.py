"""The README's library example runs, and its API and command-line text
matches the package."""

import argparse
import importlib
import json
import re
from pathlib import Path

import pmmkit
import reference_decimal
from pmmkit.cli import build_parser, main
from pmmkit.model import save_params

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end != -1 else None]


def test_quick_start_runs(capsys):
    quick_start = _section("Library quick start")
    [block] = re.findall(r"```python\n(.*?)```", quick_start, re.S)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    mean, weighted = (float(v) for v in lines[0].split())
    assert abs(mean - weighted) <= 1e-12


def test_surface_lists_all_exports():
    bullets = _section("Package surface").split("Other names")[0]
    assert set(re.findall(r"`(\w+)`", bullets)) - {"pmmkit"} == set(pmmkit.__all__)
    assert len(pmmkit.__all__) == 27


def test_submodule_table_names_importable():
    table = _section("Package surface")
    rows = re.findall(r"^\| `(pmmkit\.\w+)` \| (.+) \|$", table, re.M)
    assert rows
    for module_name, cell in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`(\w+)`", cell):
            assert hasattr(module, name), f"{module_name} has no {name}"
            assert name not in pmmkit.__all__


def test_summary_table_matches_cli(tmp_path, capsys):
    row = r"^\| `([\w-]+)` \| (`\w+`(?:, `\w+`)*) \|$"
    table = dict(re.findall(row, _section("Command line"), re.M))
    [subcommands] = (
        a.choices for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    assert list(table) == list(subcommands)
    params, traj, model = tmp_path / "p.json", tmp_path / "t.csv", tmp_path / "m.json"
    save_params(pmmkit.get_preset("fig2").true_params, params)
    # One tiny run of each subcommand, in the table's order: simulate
    # writes the series that the later ones read, and fit their model.
    runs = {
        "simulate": ["--params", params, "--n", 40, "--output", traj],
        "theoretical-mse": ["--preset", "fig2", "--n-grid", "1:3",
                            "--output", tmp_path / "c.csv"],
        "fit": ["--input", traj, "--output", model],
        "forecast": ["--model", model, "--input", traj, "--n", 5, "--k", 2],
        "evaluate": ["--model", model, "--input", traj, "--n-grid", "2", "--k-grid", "1",
                     "--output", tmp_path / "e.csv"],
        "monte-carlo": ["--params", params, "--n", 2, "--k", 1, "--reps", 100],
    }
    assert list(runs) == list(table)
    for command, argv in runs.items():
        argv = [*map(str, argv)]
        assert main([command, *argv]) == 0, capsys.readouterr().err
        captured = capsys.readouterr()
        assert captured.err == "", command
        summary = json.loads(captured.out)
        assert list(summary) == re.findall(r"`(\w+)`", table[command]), command
        # The file written, or null where --output is optional and not given.
        if "output" in summary:
            assert summary["output"] == dict(zip(argv, argv[1:])).get("--output"), command


def test_exactness_table_matches_reference():
    section = _section("How exact are the printed theory values")
    assert "PYTHONPATH=src python tests/reference_decimal.py" in section
    rows = [line for line in section.splitlines() if line.startswith("|")]
    assert rows == reference_decimal.table()
