import io
import os
import stat
from fractions import Fraction

import numpy as np
import pytest

import pmmkit.model
from pmmkit import FittedModel, estimate_params, load_params, sample
from pmmkit.error_analysis import MseCurve, curves_to_csv
from pmmkit.io import WRITE_ROWS, atomic_write, finite_number, read_json, write_json, write_rows
from pmmkit.model import save_params
from pmmkit.simulate import Trajectory, trajectory_to_csv
from helpers import (
    FIG2_PARAMS,
    rowwise_curves_to_csv,
    rowwise_table,
    rowwise_trajectory_to_csv,
)


class TestAtomicWrite:
    def test_writes_text_untranslated(self, tmp_path):
        path = tmp_path / "out.csv"
        atomic_write(path, lambda fh: fh.write("a,b\n1,2\r\n"))
        assert path.read_bytes() == b"a,b\n1,2\r\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_failed_write_keeps_earlier_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"earlier contents\n")

        def fail(fh):
            fh.write("partial")
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            atomic_write(path, fail)
        assert path.read_bytes() == b"earlier contents\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_temp_file_lives_in_target_directory(self, tmp_path):
        target_dir = tmp_path / "sub"
        target_dir.mkdir()
        seen = []
        atomic_write(
            target_dir / "out.csv",
            lambda fh: seen.extend(os.listdir(target_dir)),
        )
        assert len(seen) == 1 and seen[0] != "out.csv"
        assert os.listdir(target_dir) == ["out.csv"]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        atomic_write(path, lambda fh: fh.write("new\n"))
        assert path.read_text() == "new\n"

    def test_permissions_match_plain_open(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("x")
        atomic = tmp_path / "atomic"
        atomic_write(atomic, lambda fh: fh.write("x"))
        assert stat.S_IMODE(atomic.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    def test_missing_directory_is_an_os_error(self, tmp_path):
        with pytest.raises(OSError):
            atomic_write(tmp_path / "absent" / "out.csv", lambda fh: fh.write("x"))


class TestJson:
    def test_write_is_indented_with_trailing_newline(self):
        fh = io.StringIO()
        write_json(fh, {"a": [1, 0.5], "b": None})
        assert fh.getvalue() == '{\n  "a": [\n    1,\n    0.5\n  ],\n  "b": null\n}\n'

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_write_rejects_non_finite_before_writing(self, value):
        fh = io.StringIO()
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(fh, {"ok": 1.0, "bad": [value]})
        assert fh.getvalue() == ""

    def test_read_round_trips_write(self, tmp_path):
        doc = {"a": [1, -0.0, 1e-300, 0.1 + 0.2], "b": {"c": True, "d": None}}
        path = tmp_path / "doc.json"
        atomic_write(path, lambda fh: write_json(fh, doc))
        assert read_json(path) == doc

    @pytest.mark.parametrize(
        "text",
        ['{"a": 0.9, "b": -0.2,\n', "", "[1, 2", '{"a": 1} trailing', "[" * 100_000],
    )
    def test_unparseable_document_names_the_file(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_json(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(OSError):
            read_json(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "value, want",
        [
            (0, 0.0),
            (-3, -3.0),
            (0.25, 0.25),
            (np.float32(0.5), 0.5),
            (np.int64(7), 7.0),
            (Fraction(1, 4), 0.25),
            (10**308, 1e308),
        ],
    )
    def test_finite_number_accepts(self, value, want):
        got = finite_number(value)
        assert type(got) is float and got == want

    @pytest.mark.parametrize(
        "value",
        [
            "0.9", "nan", True, False, np.bool_(True), None, [0.5], {"v": 0.5},
            float("nan"), float("inf"), -float("inf"), 10**400, -(10**400),
        ],
    )
    def test_finite_number_rejects(self, value):
        assert finite_number(value) is None


@pytest.fixture
def write_spy(monkeypatch):
    """Record the paths every ``atomic_write`` call made from model and
    pipeline code, and still write them."""
    paths = []

    def spy(path, write_fn):
        paths.append(path)
        atomic_write(path, write_fn)

    monkeypatch.setattr(pmmkit.model, "atomic_write", spy)
    return paths


def test_save_params_round_trips_through_atomic_write(tmp_path, write_spy):
    path = tmp_path / "params.json"
    save_params(FIG2_PARAMS, path)
    assert write_spy == [path]
    assert load_params(path) == FIG2_PARAMS
    assert os.listdir(tmp_path) == ["params.json"]


def test_fitted_model_save_round_trips_through_atomic_write(tmp_path, write_spy):
    t = sample(FIG2_PARAMS, 200, seed=84)
    fitted = estimate_params(t.x, t.y)._replace(fit_window=(0, 200))
    path = tmp_path / "model.json"
    fitted.save(path)
    assert write_spy == [path]
    assert FittedModel.load(path) == fitted
    assert os.listdir(tmp_path) == ["model.json"]


# Zeros of both signs, the smallest subnormal, the largest double and a
# value whose 13th digit carries into the next decade.
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 9.9999999999995e-05]
EDGE_INTS = [0, -7, 10**6]


def _text(write) -> str:
    """What ``write`` writes to a text buffer."""
    buf = io.StringIO()
    write(buf)
    return buf.getvalue()


class TestCsvWriters:
    """The one number rule against the row-wise writers it replaced."""

    def test_rows_equal_rowwise_table(self):
        columns = ("i", "v", "neg")
        rows = [(i, v, -v) for i in EDGE_INTS for v in EDGE_FLOATS]
        text = _text(lambda fh: write_rows(fh, columns, rows))
        assert text == _text(lambda fh: rowwise_table(fh, columns, rows))
        assert "-7,1.000000000000e-04,-1.000000000000e-04\n" in text
        assert "1000000,-0.000000000000e+00,0.000000000000e+00\n" in text

    def test_rows_of_mixed_types_equal_rowwise_table(self):
        # numpy scalars are no Python int, so they print as %.12e.
        rows = [(1, 2.5), (2.5, 1), (np.int64(3), np.float64(0.1)), (True,)]
        want = _text(lambda fh: rowwise_table(fh, ("a", "b"), rows))
        assert _text(lambda fh: write_rows(fh, ("a", "b"), rows)) == want

    def test_blocks_equal_rowwise_table(self):
        rows = [(i, i / 7.0) for i in range(2 * WRITE_ROWS + 3)]
        want = _text(lambda fh: rowwise_table(fh, ("i", "v"), rows))
        assert _text(lambda fh: write_rows(fh, ("i", "v"), iter(rows))) == want

    def test_curves_equal_rowwise(self):
        points = tuple(zip([*EDGE_INTS, 4, 5], EDGE_FLOATS))
        curves = [MseCurve("PMM", "k", points, 5), MseCurve("HMM", "n", points)]
        text = _text(lambda fh: curves_to_csv(curves, fh))
        assert text == _text(lambda fh: rowwise_curves_to_csv(curves, fh))
        assert "PMM(n=5),k,-7,-0.000000000000e+00\n" in text

    def test_nonfinite_block_equals_rowwise_trajectory(self):
        """A block with nan, inf and a three-digit exponent, between two
        blocks that numpy formats."""
        base = sample(FIG2_PARAMS, 3 * WRITE_ROWS, seed=2)
        x, y = base.x.copy(), base.y.copy()
        at = WRITE_ROWS + 10
        x[at : at + 3] = [np.nan, np.inf, 1e100]
        y[at : at + 3] = [-np.inf, 1e100, np.nan]
        traj = Trajectory(x=x, y=y, seed=0)
        text = _text(lambda fh: trajectory_to_csv(traj, fh))
        assert text == _text(lambda fh: rowwise_trajectory_to_csv(traj, fh))
        assert f"{at + 1},nan,-inf\n" in text
        assert f"{at + 3},1.000000000000e+100,nan\n" in text
