import os
import stat

import pytest

import pmmkit.model
import pmmkit.pipeline
from pmmkit import FittedModel, estimate_params, load_params, sample
from pmmkit.io import atomic_write
from pmmkit.model import save_params
from helpers import FIG2_PARAMS


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


@pytest.fixture
def write_spy(monkeypatch):
    """Record the paths every ``atomic_write`` call made from model and
    pipeline code, and still write them."""
    paths = []

    def spy(path, write_fn):
        paths.append(path)
        atomic_write(path, write_fn)

    monkeypatch.setattr(pmmkit.model, "atomic_write", spy)
    monkeypatch.setattr(pmmkit.pipeline, "atomic_write", spy)
    return paths


def test_save_params_round_trips_through_atomic_write(tmp_path, write_spy):
    path = tmp_path / "params.json"
    save_params(FIG2_PARAMS, path)
    assert write_spy == [path]
    assert load_params(path) == FIG2_PARAMS
    assert os.listdir(tmp_path) == ["params.json"]


def test_fitted_model_save_round_trips_through_atomic_write(tmp_path, write_spy):
    t = sample(FIG2_PARAMS, 200, seed=84)
    fitted = estimate_params(t.x, t.y, fit_window=(0, 200))
    path = tmp_path / "model.json"
    fitted.save(path)
    assert write_spy == [path]
    assert FittedModel.load(path) == fitted
    assert os.listdir(tmp_path) == ["model.json"]
