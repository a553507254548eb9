import io
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmmkit import (
    PmmParams,
    forecaster_mse,
    get_preset,
    hmm_params,
    markov_form,
    monte_carlo_mse,
    sample,
)
from pmmkit import filtering, forecasting, simulate
from pmmkit.forecasting import FLOOR
from pmmkit.io import WRITE_ROWS
from pmmkit.simulate import (
    BLOCK_STEPS,
    Trajectory,
    _error_weights,
    empirical_covariances,
    trajectory_to_csv,
)
from helpers import (
    FIG2_PARAMS,
    FIG4_PARAMS,
    FOUND_PARAMS,
    PRESSURE_PARAMS,
    SOIL_PARAMS,
    retaining_error_weights,
    rowwise_trajectory_to_csv,
    simulated_errors,
    single_stream_monte_carlo_mse,
    unfloored_monte_carlo_mse,
    whole_batch_monte_carlo_mse,
    whole_batch_weighted_mse,
)

# Values whose formatting numpy cannot settle alone, as runs written into
# a simulated path: a decade carry, an exact or near tie of the 13th digit,
# a zero, a subnormal, a three-digit exponent, a non-finite value.
EDGE_VALUES = {
    "decade_round_up": [9.9999999999995, 9.99999999999949e-5, -9.9999999999995e-5,
                        99999.9999999995, 9.999999999999e-99],
    "exact_ties": [1234567890123.5, 10000000000005.0, -1234567890123.5, 2.5, 0.5],
    # The scaled product lands 0.499 from the wrong integer.
    "near_ties": [8.2013660427185e-94, -8.5299699025685e-94, 7.7611610324125e-94],
    "signed_zeros": [0.0, -0.0, 1.0, -1.0],
    "subnormal": [5e-324, -2.2250738585072e-310],
    "three_digit_exponent_large": [1e100, 9.99999999999999e99, -1.5e300],
    "three_digit_exponent_small": [-1.5e-100, 9.99999999999999e-100, 1e-99],
    "infinities": [float("inf"), -float("inf"), 1.0],
    "nan": [float("nan"), 1.0],
}
# The true models of the Monte Carlo checks: both preset parameter sets and
# the two fitted fixtures, whose a = 0.996 makes the errors weigh far back.
TRUE_PARAMS = {
    "fig2": FIG2_PARAMS,
    "fig4": FIG4_PARAMS,
    "pressure": PRESSURE_PARAMS,
    "soil": SOIL_PARAMS,
}
# The truth, its hidden-Markov restriction, and one fixed pairwise model
# that is neither.
FORECASTERS = {
    "true": lambda p: p,
    "hmm": lambda p: hmm_params(p.a, p.b),
    "general": lambda p: PmmParams(0.9, -0.2, 0.036, -0.3, -0.58),
}
MC_GRID = [(1, 0), (1, 3), (5, 0), (50, 5), (400, 20)]
# The lengths at which the scanned weights are held to the loop: one step,
# one short block of the scan, one block and part of a second, and many.
LOOP_GRID = [(1, 0), (50, 5), (400, 20), (10**3, 10**3), (10**6, 10**6)]
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# The magnitudes that numpy formats; the sign is drawn separately.
TWO_DIGIT_EXP = st.builds(
    lambda negative, mag: -mag if negative else mag,
    st.booleans(),
    st.floats(min_value=1e-99, max_value=1e99, exclude_max=True),
)


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
        assert t.seed == 3
        with pytest.raises(ValueError):
            t.x[0] = 99.0  # frozen

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -3$"):
            sample(FIG2_PARAMS, 10, seed=-3)

    # One-step paths as the sampler wrote them when it returned the first
    # pair without calling the kernel: (seed, x, y).
    ONE_STEP = {
        "fig2": [(0, 0.1257302210933933, -0.15458184726020585),
                 (1, 0.345584192064786, 0.7359012475833006),
                 (7, 0.0012301533574825742, 0.29246362126020115),
                 (2**40, -1.3670605025457785, 0.21177889910016354)],
        "soil": [(0, 0.1257302210933933, -0.04266126289507047),
                 (1, 0.345584192064786, 0.8775918346580963),
                 (7, 0.0012301533574825742, 0.2515343687729621),
                 (2**40, -1.3670605025457785, -0.7951365014645029)],
        "pressure": [(0, 0.1257302210933933, -0.1811220232890775),
                     (1, 0.345584192064786, 0.4499439995620551),
                     (7, 0.0012301533574825742, 0.23825833799228638),
                     (2**40, -1.3670605025457785, 0.769913003305395)],
    }

    @pytest.mark.parametrize("truth", ONE_STEP)
    def test_one_step_bit_identical_to_first_pair(self, truth):
        for seed, x, y in self.ONE_STEP[truth]:
            t = sample(TRUE_PARAMS[truth], 1, seed)
            assert t.x.tolist() == [x] and t.y.tolist() == [y]


def test_sample_peak_is_the_draws_and_the_states():
    # 16 bytes a step of normal draws and 16 of states, which the trajectory
    # views; padded noise and time-major copies took 88 MB at this length.
    n_steps = 10**6
    sample(FIG2_PARAMS, 10, seed=1)  # the imports, untraced
    tracemalloc.start()
    try:
        traj = sample(FIG2_PARAMS, n_steps, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == n_steps
    assert peak <= 32 * n_steps + 1_000_000


class TestMoments:
    def test_independent_params_iid_standard_normal(self):
        t = sample(PmmParams(0, 0, 0, 0, 0), 200_000, seed=4)
        est = empirical_covariances(t.x, t.y)
        bound = 3.0 / np.sqrt(200_000)
        for value in est:
            assert abs(value) < 3 * bound + 0.002

    def test_hmm_base_recovers_its_covariances(self):
        t = sample(hmm_params(0.9, -0.2), 1_000_000, seed=5)
        est = empirical_covariances(t.x, t.y)
        target = (0.9, -0.2, 0.036, -0.18, -0.18)
        np.testing.assert_allclose(est, target, atol=0.01)

    def test_fig2_recovers_its_covariances(self):
        t = sample(FIG2_PARAMS, 1_000_000, seed=6)
        np.testing.assert_allclose(
            empirical_covariances(t.x, t.y),
            FIG2_PARAMS,
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
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, 5, 2, 500, seed=-1)

    def test_replicate_steps_bounded_before_any_draw(self, monkeypatch):
        # 500 replicates of n + k = 7 steps.
        monkeypatch.setattr(simulate, "MAX_REPLICATE_STEPS", 3500)
        assert monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, 5, 2, 500, seed=1)
        monkeypatch.setattr(simulate, "MAX_REPLICATE_STEPS", 3499)
        monkeypatch.setattr(simulate, "_rng", None)  # a draw would fail otherwise
        with pytest.raises(
            ValueError,
            match="^replicate-steps of reps \\(500\\) times n \\+ k \\(7\\) must be <= 3499, got 3500$",
        ):
            monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, 5, 2, 500, seed=1)

    # With the budget set so that a block holds BLOCK_STEPS // (n + k) =
    # 1024 replicates: fewer than one block, exactly one, one plus a single
    # replicate, and two full blocks plus a partial one.
    @pytest.mark.parametrize("reps", [100, 1024, 1025, 2 * 1024 + 3])
    @pytest.mark.parametrize("n, k", [(1, 0), (1, 3), (50, 5)])
    @pytest.mark.parametrize("preset", ["fig2", "fig4"])
    @pytest.mark.parametrize("which", ["true", "hmm"])
    def test_blocks_equal_whole_batch(self, monkeypatch, reps, n, k, preset, which):
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 1024 * (n + k))
        assert_blocks_equal_whole_batch(preset, which, n, k, reps)

    # The same at the default budget, with blocks of BLOCK_STEPS // (n + k)
    # replicates: exactly one block, one plus a single replicate, and two
    # full blocks plus a partial one.
    @pytest.mark.parametrize(
        "blocks, extra", [(1, 0), (1, 1), (2, 3)], ids=["one", "one_plus_one", "two_plus_three"]
    )
    @pytest.mark.parametrize("n, k", [(1, 0), (1, 3), (50, 5)])
    @pytest.mark.parametrize("preset", ["fig2", "fig4"])
    @pytest.mark.parametrize("which", ["true", "hmm"])
    def test_default_blocks_equal_whole_batch(self, blocks, extra, n, k, preset, which):
        reps = blocks * (BLOCK_STEPS // (n + k)) + extra
        assert_blocks_equal_whole_batch(preset, which, n, k, reps)

    # Every block holds one replicate, where a matrix-vector product would
    # take another path than on a full block: 100 and 1025 such blocks.
    @pytest.mark.parametrize("reps", [100, 1025])
    @pytest.mark.parametrize("n, k", [(1, 0), (1, 3), (50, 5)])
    def test_one_replicate_blocks_equal_whole_batch(self, monkeypatch, reps, n, k):
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 1)
        fig = get_preset("fig4")
        args = (fig.true_params, fig.hmm_reference, n, k, reps, 27)
        assert monte_carlo_mse(*args) == whole_batch_weighted_mse(*args)

    # Weights below FLOOR are 0.0 in the product, and the mean and standard
    # error keep every bit: a draw times such a weight cannot move an error
    # of order 1.  At n = k = 10^5 most weights of either forecaster are.
    # The loop that weighs without any floor rounds in another order, so it
    # is held to the tolerance of test_matches_simulate_and_filter.
    @pytest.mark.parametrize("n", [10**4, 10**5])
    @pytest.mark.parametrize("preset", ["fig2", "fig4"])
    @pytest.mark.parametrize("which", ["true", "hmm"])
    def test_equals_unfloored_weights(self, monkeypatch, which, preset, n):
        fig = get_preset(preset)
        p_fc = fig.true_params if which == "true" else fig.hmm_reference
        args = (fig.true_params, p_fc, n, n, 100, 29)
        floored = monte_carlo_mse(*args)
        for module in (forecasting, filtering, simulate):
            monkeypatch.setattr(module, "FLOOR", 0.0)
        assert floored == monte_carlo_mse(*args)
        np.testing.assert_allclose(floored, unfloored_monte_carlo_mse(*args), rtol=1e-13)

    @pytest.mark.parametrize("n, k", MC_GRID)
    @pytest.mark.parametrize("which", FORECASTERS)
    @pytest.mark.parametrize("truth", TRUE_PARAMS)
    def test_matches_simulate_and_filter(self, truth, which, n, k):
        """The weighted draws against simulating and filtering the same
        draws: the arithmetic differs, the numbers agree to rounding."""
        p_true = TRUE_PARAMS[truth]
        args = (p_true, FORECASTERS[which](p_true), n, k, 500, 28)
        np.testing.assert_allclose(
            monte_carlo_mse(*args), whole_batch_monte_carlo_mse(*args), rtol=1e-13
        )

    def test_memory_bounded_in_replicates(self, monkeypatch):
        # Eight threads, whatever the machine, each with one block in flight.
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 8)
        fig = get_preset("fig4")
        tracemalloc.start()
        try:
            monte_carlo_mse(fig.true_params, fig.hmm_reference, 400, 5, 100_000, seed=24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The noise of every replicate at once would take about 650 MB
        # here; with 1 MB blocks of it the peak is about 4 MB.
        assert peak < 16_000_000

    # n + k = 5000 makes a block of 2**16 // 5000 = 13 replicates, so 300
    # replicates are 23 full blocks and one of a single replicate.
    def test_long_replicates_equal_whole_batch(self):
        fig = get_preset("fig4")
        args = (fig.true_params, fig.hmm_reference, 4995, 5, 300, 25)
        assert monte_carlo_mse(*args) == whole_batch_weighted_mse(*args)

    def test_memory_bounded_in_replicate_length(self, monkeypatch):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 8)
        fig = get_preset("fig4")
        tracemalloc.start()
        try:
            monte_carlo_mse(fig.true_params, fig.hmm_reference, 4995, 5, 1024, seed=26)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The noise of all 1024 replicates at once would take about 82 MB
        # here; with blocks of 13 replicates the peak is about 1.2 MB.
        assert peak < 24_000_000

    def test_memory_bounded_in_threads(self, monkeypatch):
        # n + k = 2 * 10^5 is three pieces of BLOCK_STEPS steps a replicate.
        # The weights are formed before tracing: their O(n + k) Python
        # floats are not the noise.
        fig = get_preset("fig4")
        n = k = 10**5
        weights = _error_weights(markov_form(fig.true_params), markov_form(fig.hmm_reference), n, k)
        monkeypatch.setattr(simulate, "_error_weights", lambda *args: weights)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 8)
        tracemalloc.start()
        try:
            monte_carlo_mse(fig.true_params, fig.hmm_reference, n, k, 100, seed=31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A whole row in flight on each of 8 threads would take 25.6 MB; a
        # piece on each takes 8 * 16 * BLOCK_STEPS bytes, 8.4 MB.
        assert peak < 8 * 16 * BLOCK_STEPS + 1_000_000

    # The single-stream Monte Carlo drew every replicate's first pair up
    # front and weighed it apart from the rest of the row.
    @pytest.mark.parametrize("n, k", MC_GRID)
    @pytest.mark.parametrize("which", FORECASTERS)
    @pytest.mark.parametrize("truth", TRUE_PARAMS)
    def test_row_arithmetic_matches_single_stream(self, truth, which, n, k):
        """One product over a whole row against the first pair's two
        products plus one over the rest, on the same draws."""
        p_true = TRUE_PARAMS[truth]
        weights = _error_weights(
            markov_form(p_true), markov_form(FORECASTERS[which](p_true)), n, k
        )
        noise = np.random.default_rng(30).standard_normal((500, 2 * (n + k)))
        new = np.einsum("ij,j->i", noise, weights.ravel())
        old = weights[0, 0] * noise[:, 0] + weights[0, 1] * noise[:, 1]
        old += np.einsum("ij,j->i", np.ascontiguousarray(noise[:, 2:]), weights[1:].ravel())
        # An error near 0 keeps its absolute rounding, not its relative one;
        # the mean and standard error of the squares are held to 1e-13.
        np.testing.assert_allclose(mse_and_stderr(new), mse_and_stderr(old), rtol=1e-13)

    @pytest.mark.parametrize("n, k", MC_GRID)
    @pytest.mark.parametrize("which", FORECASTERS)
    @pytest.mark.parametrize("truth", TRUE_PARAMS)
    def test_agrees_with_single_stream(self, truth, which, n, k):
        """The per-block streams and the single stream are independent
        samples of one law: their MSEs agree within 5 combined standard
        errors."""
        p_true = TRUE_PARAMS[truth]
        args = (p_true, FORECASTERS[which](p_true), n, k, 2000, 32)
        mse, stderr = monte_carlo_mse(*args)
        old_mse, old_stderr = single_stream_monte_carlo_mse(*args)
        assert abs(mse - old_mse) <= 5 * math.hypot(stderr, old_stderr)

    # Nine blocks of 1191 replicates, and 100 one-replicate blocks of two
    # pieces each; the threads switch every microsecond, so that a block
    # written over by another thread would show.  numpy's einsum sums a row
    # longer than its 8,192-element buffer in another order alone than in a
    # batch, so the one-replicate blocks of 140,000 normals meet the whole
    # batch at the tolerance of test_matches_simulate_and_filter.
    @pytest.mark.parametrize("n, k, reps", [(50, 5, 10_000), (40_000, 30_000, 100)])
    def test_same_result_at_any_worker_count(self, monkeypatch, n, k, reps):
        fig = get_preset("fig4")
        args = (fig.true_params, fig.hmm_reference, n, k, reps, 33)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(simulate, "_cpu_count", lambda: workers)
                results.append(monte_carlo_mse(*args))
        finally:
            sys.setswitchinterval(interval)
        assert results[1:] == results[:-1]
        if 2 * (n + k) <= 8192:
            assert results[0] == whole_batch_weighted_mse(*args)
        else:
            np.testing.assert_allclose(results[0], whole_batch_weighted_mse(*args), rtol=1e-13)

    def test_blocks_striped_over_threads(self, monkeypatch):
        # Block j runs on thread j mod 3, the caller's thread being thread 0.
        ran = {}
        rng = simulate._rng

        def recording_rng(seed, *spawn_key):
            ran[spawn_key] = threading.get_ident()
            return rng(seed, *spawn_key)

        monkeypatch.setattr(simulate, "_rng", recording_rng)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 3)
        monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, 50, 5, 10_000, seed=34)
        assert sorted(ran) == [(j,) for j in range(9)]
        stripes = [{ran[(j,)] for j in range(w, 9, 3)} for w in range(3)]
        assert all(len(s) == 1 for s in stripes)
        assert stripes[0] == {threading.get_ident()}
        assert len(set.union(*stripes)) == 3

    def test_worker_failure_stops_the_caller(self, monkeypatch):
        # Block 1 fails on the second thread once the caller has begun
        # block 0, which waits for that thread to end, so the caller's next
        # block (2) must see the failure.
        started = []
        begun = threading.Event()
        rng = simulate._rng

        def failing_rng(seed, *spawn_key):
            started.append(spawn_key)
            if spawn_key == (1,):
                begun.wait(timeout=60)
                np.empty(2**57)  # numpy's MemoryError, raised at once
            if spawn_key == (0,):
                begun.set()
                for thread in set(threading.enumerate()) - before:
                    thread.join(timeout=60)
            return rng(seed, *spawn_key)

        before = set(threading.enumerate())
        monkeypatch.setattr(simulate, "_rng", failing_rng)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
        with pytest.raises(MemoryError):
            monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, 50, 5, 10_000, seed=35)
        assert sorted(started) == [(0,), (1,)]

    def test_caller_interrupt_stops_the_workers(self, monkeypatch):
        # The caller is interrupted in block 0 once the second thread has
        # begun block 1; that thread stops at a later block, and no thread
        # of the call is left running.
        started = []
        begun = threading.Event()
        rng = simulate._rng

        def interrupted_rng(seed, *spawn_key):
            started.append(spawn_key)
            if spawn_key == (1,):
                begun.set()
            if spawn_key == (0,):
                begun.wait(timeout=60)
                raise KeyboardInterrupt
            return rng(seed, *spawn_key)

        before = set(threading.enumerate())
        monkeypatch.setattr(simulate, "_rng", interrupted_rng)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
        # 839 blocks of 78 replicates.
        with pytest.raises(KeyboardInterrupt):
            monte_carlo_mse(FIG2_PARAMS, FIG2_PARAMS, 800, 40, 65_400, seed=36)
        assert set(threading.enumerate()) <= before
        assert (1,) in started and len(started) < 100


def assert_near_loop(weights, want, scale=None):
    """The scanned weights against the Python loop's, which rounds in
    another order: each within 1e-15 of ``scale``, by default the largest
    weight."""
    assert weights.shape == want.shape
    scale = np.max(np.abs(want)) if scale is None else scale
    assert np.max(np.abs(weights - want)) <= 1e-15 * scale


# The cases of test_weights_match_the_loop where 1e-15 of the largest
# weight does not hold (the scan is up to 2.8e-15 of it from the loop): a
# weight there is a small difference of large terms, and the loop itself is
# 2.7e-15 of the largest weight from the exact rational weights.  They are
# held to 1e-15 of the weights' norm, the error's standard deviation.
NORM_SCALED = {
    ("pressure", "true", 400, 20), ("pressure", "hmm", 400, 20),
    ("pressure", "general", 400, 20), ("soil", "true", 400, 20), ("soil", "hmm", 400, 20),
}


class TestErrorWeights:
    """The weights of the forecast error on the draws, tied to the exact
    MSE theory and to the simulate-and-filter path."""

    @pytest.mark.parametrize("n, k", MC_GRID)
    @pytest.mark.parametrize("which", FORECASTERS)
    @pytest.mark.parametrize("truth", TRUE_PARAMS)
    def test_squared_weights_sum_to_exact_mse(self, truth, which, n, k):
        # The draws are independent standard normals, so the error variance
        # is the squared norm of its weights.
        p_true = TRUE_PARAMS[truth]
        p_fc = FORECASTERS[which](p_true)
        weights = _error_weights(markov_form(p_true), markov_form(p_fc), n, k)
        assert weights.shape == (n + k, 2)
        exact = forecaster_mse(p_true, p_fc, [n], [k])[(n, k)]
        assert float(np.sum(weights * weights)) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("n, k", MC_GRID)
    @pytest.mark.parametrize("which", FORECASTERS)
    @pytest.mark.parametrize("truth", TRUE_PARAMS)
    def test_weights_are_simulated_errors_of_unit_draws(self, truth, which, n, k):
        # Replicate i draws the i-th unit vector of all 2 (n + k) normals.
        p_true = TRUE_PARAMS[truth]
        p_fc = FORECASTERS[which](p_true)
        unit = np.eye(2 * (n + k))
        eps = unit[:, 2:].reshape(2 * (n + k), n + k - 1, 2)
        errors = simulated_errors(p_true, p_fc, n, k, unit[:, :2], eps)
        weights = _error_weights(markov_form(p_true), markov_form(p_fc), n, k)
        # The old path gets a small weight as the difference of a simulated
        # X and its prediction, so each entry is held to 1e-13 of the
        # error's standard deviation as well as of itself.
        np.testing.assert_allclose(
            weights.ravel(), errors, rtol=1e-13, atol=1e-13 * np.linalg.norm(errors)
        )


    @pytest.mark.parametrize("which", ["true", "hmm"])
    def test_no_weight_below_floor(self, which):
        fig = get_preset("fig4")
        p_fc = fig.true_params if which == "true" else fig.hmm_reference
        weights = _error_weights(
            markov_form(fig.true_params), markov_form(p_fc), 10**5, 10**5
        )
        magnitudes = np.abs(weights)
        assert not np.any((magnitudes > 0) & (magnitudes < FLOOR))
        assert np.any(magnitudes == 0)


    def test_memory_bounded_at_long_replicates(self):
        # 4 * 10^5 rows are 6.4 MB of weights; built as a list of Python
        # 2-tuples and its reversed copy, they peaked at about 74 MB.
        fig = get_preset("fig2")
        m_true, m_fc = markov_form(fig.true_params), markov_form(fig.hmm_reference)
        tracemalloc.start()
        try:
            _error_weights(m_true, m_fc, 2 * 10**5, 2 * 10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40_000_000

    @pytest.mark.parametrize("which", FORECASTERS)
    def test_peak_within_three_times_the_weights(self, which):
        # Keeping the n filter weights as Python floats, the row buffer and
        # np.abs's temporary to the end peaked at 4.2 times the weights.
        p_true = get_preset("fig2").true_params
        m_true, m_fc = markov_form(p_true), markov_form(FORECASTERS[which](p_true))
        n = k = 5 * 10**4
        want = retaining_error_weights(m_true, m_fc, n, k)
        tracemalloc.start()
        try:
            weights = _error_weights(m_true, m_fc, n, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * weights.nbytes
        assert_near_loop(weights, want)

    @pytest.mark.parametrize("n, k", LOOP_GRID)
    @pytest.mark.parametrize("which", FORECASTERS)
    @pytest.mark.parametrize("truth", [*TRUE_PARAMS, "found"])
    def test_weights_match_the_loop(self, truth, which, n, k):
        p_true = FOUND_PARAMS if truth == "found" else TRUE_PARAMS[truth]
        m_true, m_fc = markov_form(p_true), markov_form(FORECASTERS[which](p_true))
        want = retaining_error_weights(m_true, m_fc, n, k)
        scale = np.linalg.norm(want) if (truth, which, n, k) in NORM_SCALED else None
        assert_near_loop(_error_weights(m_true, m_fc, n, k), want, scale)


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

    # 10 and 100_001 rows take t from 9 to 10 and from 99 999 to 100 000;
    # 4095..4097 straddle a block of 4096 rows, the writer's earlier size.
    @pytest.mark.parametrize(
        "n_steps",
        sorted({1, 10, 4095, 4096, 4097, 10_000, WRITE_ROWS - 1, WRITE_ROWS,
                WRITE_ROWS + 1, 100_001}),
    )
    def test_batched_rows_equal_rowwise(self, n_steps):
        assert_csv_equals_rowwise(sample(FIG2_PARAMS, n_steps, seed=12))

    def test_extreme_values_equal_rowwise(self):
        values = np.array([0.0, -0.0, 5e-324, 1e-300, -1.5e300, 123456.789])
        text = assert_csv_equals_rowwise(
            Trajectory(x=values, y=values[::-1].copy(), seed=0)
        )
        assert "-0.000000000000e+00" in text

    @pytest.mark.parametrize("values", EDGE_VALUES.values(), ids=EDGE_VALUES.keys())
    def test_edge_values_equal_rowwise(self, values):
        """Edge values in the middle block of three, after and before
        blocks of simulated rows."""
        base = sample(FIG2_PARAMS, 2 * WRITE_ROWS + 5, seed=13)
        x, y = base.x.copy(), base.y.copy()
        at = WRITE_ROWS + 3
        x[at : at + len(values)] = values
        y[at : at + len(values)] = values[::-1]
        assert_csv_equals_rowwise(Trajectory(x=x, y=y, seed=0))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(st.tuples(ANY_FINITE, ANY_FINITE), min_size=1, max_size=40),
            st.lists(st.tuples(TWO_DIGIT_EXP, TWO_DIGIT_EXP), min_size=1, max_size=40),
        )
    )
    def test_arbitrary_doubles_equal_rowwise(self, rows):
        x, y = np.array(rows).T
        assert_csv_equals_rowwise(Trajectory(x=x.copy(), y=y.copy(), seed=0))


def mse_and_stderr(errors) -> tuple[float, float]:
    sq_errors = errors * errors
    return sq_errors.mean(), sq_errors.std(ddof=1) / math.sqrt(errors.size)


def assert_blocks_equal_whole_batch(preset, which, n, k, reps) -> None:
    fig = get_preset(preset)
    p_fc = fig.true_params if which == "true" else fig.hmm_reference
    args = (fig.true_params, p_fc, n, k, reps, 23)
    assert monte_carlo_mse(*args) == whole_batch_weighted_mse(*args)


def assert_csv_equals_rowwise(traj) -> str:
    """The batched CSV of ``traj``, asserted byte-identical to the
    row-by-row f-string one."""
    got, want = io.StringIO(), io.StringIO()
    trajectory_to_csv(traj, got)
    rowwise_trajectory_to_csv(traj, want)
    assert got.getvalue() == want.getvalue()
    return got.getvalue()
