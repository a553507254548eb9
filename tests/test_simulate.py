import io
import tracemalloc

import numpy as np
import pytest

from pmmkit import PmmParams, get_preset, hmm_params, sample, monte_carlo_mse
from pmmkit.simulate import (
    REPLICATE_CHUNK,
    WRITE_ROWS,
    Trajectory,
    empirical_covariances,
    trajectory_to_csv,
)
from helpers import FIG2_PARAMS, rowwise_trajectory_to_csv, whole_batch_monte_carlo_mse


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        t1 = sample(FIG2_PARAMS, 5000, seed=77)
        t2 = sample(FIG2_PARAMS, 5000, seed=77)
        np.testing.assert_array_equal(t1.x, t2.x)
        np.testing.assert_array_equal(t1.y, t2.y)

    def test_distinct_seeds_decorrelated(self):
        t1 = sample(FIG2_PARAMS, 50_000, seed=1)
        t2 = sample(FIG2_PARAMS, 50_000, seed=2)
        corr = np.corrcoef(t1.x, t2.x)[0, 1]
        assert abs(corr) < 0.02

    def test_lengths_and_metadata(self):
        t = sample(FIG2_PARAMS, 10, seed=3)
        assert len(t) == 10 and t.x.shape == t.y.shape == (10,)
        assert t.seed == 3 and t.rng == "numpy-pcg64"
        with pytest.raises(ValueError):
            t.x[0] = 99.0  # frozen

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed=-3"):
            sample(FIG2_PARAMS, 10, seed=-3)


class TestMoments:
    def test_independent_params_iid_standard_normal(self):
        t = sample(PmmParams(0, 0, 0, 0, 0), 200_000, seed=4)
        est = empirical_covariances(t.x, t.y)
        bound = 3.0 / np.sqrt(200_000)
        for value in est.astuple():
            assert abs(value) < 3 * bound + 0.002

    def test_hmm_base_recovers_its_covariances(self):
        t = sample(hmm_params(0.9, -0.2), 1_000_000, seed=5)
        est = empirical_covariances(t.x, t.y)
        target = (0.9, -0.2, 0.036, -0.18, -0.18)
        np.testing.assert_allclose(est.astuple(), target, atol=0.01)

    def test_fig2_recovers_its_covariances(self):
        t = sample(FIG2_PARAMS, 1_000_000, seed=6)
        np.testing.assert_allclose(
            empirical_covariances(t.x, t.y).astuple(),
            FIG2_PARAMS.astuple(),
            atol=0.01,
        )

    def test_first_pair_standard_scale(self):
        # Means ~0, variances ~1 at every fixed time (stationarity).
        t = sample(FIG2_PARAMS, 300_000, seed=7)
        assert abs(t.x.mean()) < 0.01 and abs(t.y.mean()) < 0.01
        assert t.x.var() == pytest.approx(1.0, abs=0.02)
        assert t.y.var() == pytest.approx(1.0, abs=0.02)


class TestMonteCarloMse:
    def test_unit_error_for_uninformed_forecaster(self):
        zero = PmmParams(0, 0, 0, 0, 0)
        mse, stderr = monte_carlo_mse(zero, zero, 4, 2, 20_000, seed=8)
        assert abs(mse - 1.0) < 4 * stderr

    def test_minimum_replicates_enforced(self):
        with pytest.raises(ValueError):
            monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, 3, 1, 99, seed=9)

    def test_deterministic_given_seed(self):
        r1 = monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, 5, 2, 500, seed=10)
        r2 = monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, 5, 2, 500, seed=10)
        assert r1 == r2

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed=-1"):
            monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, 5, 2, 500, seed=-1)

    # Fewer than one block, exactly one, one plus a single replicate, and
    # two full blocks plus a partial one.
    @pytest.mark.parametrize(
        "reps", [100, REPLICATE_CHUNK, REPLICATE_CHUNK + 1, 2 * REPLICATE_CHUNK + 3]
    )
    @pytest.mark.parametrize("n, k", [(1, 0), (1, 3), (50, 5)])
    @pytest.mark.parametrize("preset", ["fig2", "fig4"])
    @pytest.mark.parametrize("which", ["true", "hmm"])
    def test_blocks_equal_whole_batch(self, reps, n, k, preset, which):
        fig = get_preset(preset)
        p_fc = fig.true_params if which == "true" else fig.hmm_reference
        args = (fig.true_params, p_fc, n, k, reps, 23)
        assert monte_carlo_mse(*args) == whole_batch_monte_carlo_mse(*args)

    def test_memory_bounded_in_replicates(self):
        fig = get_preset("fig4")
        tracemalloc.start()
        try:
            monte_carlo_mse(fig.true_params, fig.hmm_reference, 400, 5, 100_000, seed=24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Noise and both trajectories for every replicate at once would
        # take about 650 MB here.
        assert peak < 32_000_000


class TestCsv:
    def test_header_and_rows(self):
        t = sample(FIG2_PARAMS, 3, seed=11)
        buf = io.StringIO()
        trajectory_to_csv(t, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(t.x[0], rel=1e-11)

    @pytest.mark.parametrize(
        "n_steps", [1, WRITE_ROWS - 1, WRITE_ROWS, WRITE_ROWS + 1, 10_000]
    )
    def test_batched_rows_equal_rowwise(self, n_steps):
        t = sample(FIG2_PARAMS, n_steps, seed=12)
        got, want = io.StringIO(), io.StringIO()
        trajectory_to_csv(t, got)
        rowwise_trajectory_to_csv(t, want)
        assert got.getvalue() == want.getvalue()

    def test_extreme_values_equal_rowwise(self):
        values = np.array([0.0, -0.0, 5e-324, 1e-300, -1.5e300, 123456.789])
        t = Trajectory(x=values, y=values[::-1].copy(), seed=0)
        got, want = io.StringIO(), io.StringIO()
        trajectory_to_csv(t, got)
        rowwise_trajectory_to_csv(t, want)
        assert got.getvalue() == want.getvalue()
        assert "-0.000000000000e+00" in got.getvalue()
