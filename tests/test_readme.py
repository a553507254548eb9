"""The README's library example runs, and its API text matches the package."""

import importlib
import re
from pathlib import Path

import pmmkit

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
