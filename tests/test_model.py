import json
import math
import re

import numpy as np
import pytest

from pmmkit import (
    InvalidModelError,
    PmmParams,
    hmm_params,
    load_params,
    markov_form,
    validate,
)
from pmmkit import error_analysis
from pmmkit.error_analysis import MseCurve
from pmmkit.filtering import FilterState
from pmmkit.forecasting import ForecastResult
from pmmkit.model import (
    PD_TOL,
    SPECTRAL_TOL,
    DetrendModel,
    FittedModel,
    StandardizationParams,
    TransitionModel,
    ValidationReport,
    _min_eigenvalue,
    _transition,
    gamma_from_params,
    is_hmm,
    save_params,
)
from pmmkit.presets import PRESET_NAMES, SweepPreset, get_preset
from helpers import FIG2_PARAMS, FIG4_PARAMS, PRESSURE_PARAMS, random_valid_params
from reference_decimal import REAL_EXAMPLES


class TestGamma:
    def test_independent_case_is_identity(self):
        np.testing.assert_array_equal(
            gamma_from_params(PmmParams(0, 0, 0, 0, 0)), np.eye(4)
        )

    def test_hmm_base_entries(self):
        g = np.array(gamma_from_params(hmm_params(0.9, -0.2)))
        assert g[0, 2] == 0.9
        assert g[0, 1] == -0.2
        assert g[1, 3] == pytest.approx(0.036, abs=1e-15)

    def test_perturbed_cross_covariance_entry(self):
        g = np.array(gamma_from_params(FIG2_PARAMS))
        assert g[2, 1] == -0.58

    def test_stationary_block_structure(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_valid_params(rng)
            g = np.array(gamma_from_params(p))
            np.testing.assert_allclose(g, g.T, atol=0)
            np.testing.assert_array_equal(np.diag(g), np.ones(4))
            assert g[0, 1] == g[2, 3] == p.b
            assert g[0, 2] == p.a


class TestHmmParams:
    def test_base_values(self):
        p = hmm_params(0.9, -0.2)
        assert p == pytest.approx((0.9, -0.2, 0.036, -0.18, -0.18))

    def test_zero_persistence(self):
        assert hmm_params(0, 0.5) == (0, 0.5, 0, 0, 0)

    def test_boundary_rejected(self):
        with pytest.raises(InvalidModelError):
            hmm_params(0.5, 1.0)
        with pytest.raises(InvalidModelError):
            hmm_params(-1.0, 0.2)


class TestIsHmm:
    def test_exact_hmm(self):
        assert is_hmm(hmm_params(0.9, -0.2))

    def test_perturbed_model_is_not(self):
        assert not is_hmm(FIG2_PARAMS)

    def test_fitted_pressure_model_is_not(self):
        # a*b^2 = 0.359 vs c = 0.986
        assert not is_hmm(PRESSURE_PARAMS)


class TestMarkovForm:
    def test_hmm_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a, b = rng.uniform(-0.95, 0.95, size=2)
            m = markov_form(hmm_params(a, b))
            np.testing.assert_allclose(m.A, [[a, 0], [a * b, 0]], atol=1e-12)
            np.testing.assert_allclose(
                m.Q,
                [
                    [1 - a * a, b * (1 - a * a)],
                    [b * (1 - a * a), 1 - a * a * b * b],
                ],
                atol=1e-12,
            )

    def test_independent_case(self):
        m = markov_form(PmmParams(0, 0, 0, 0, 0))
        np.testing.assert_array_equal(m.A, np.zeros((2, 2)))
        np.testing.assert_array_equal(m.Q, np.eye(2))

    def test_pinned_fig2_values(self):
        # Direct evaluation with the exact 2x2 inverse; cross-checked by the
        # stationarity fixed point below.
        m = markov_form(FIG2_PARAMS)
        np.testing.assert_allclose(
            m.A, [[49 / 60, -5 / 12], [-0.18, 0.0]], atol=1e-12
        )
        np.testing.assert_allclose(
            m.Q, [[7 / 300, -0.038], [-0.038, 0.9676]], atol=1e-12
        )

    def test_singular_marginal_rejected(self):
        with pytest.raises(InvalidModelError):
            markov_form(PmmParams(0.5, 1.0, 0.1, 0.1, 0.1))

    def test_non_psd_noise_rejected(self):
        with pytest.raises(InvalidModelError):
            markov_form(PmmParams(0.9, 0.0, 0.9, 0.9, 0.9))

    def test_stationarity_fixed_point(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = markov_form(random_valid_params(rng))
            A, marginal = np.array(m.A), np.array(m.marginal)
            np.testing.assert_allclose(A @ marginal @ A.T + m.Q, marginal, atol=1e-10)

    def test_one_step_covariances_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = random_valid_params(rng)
            m = markov_form(p)
            cross = np.array(m.A) @ m.marginal  # Cov[Z_{n+1}, Z_n]
            np.testing.assert_allclose(
                cross, [[p.a, p.e], [p.d, p.c]], atol=1e-12
            )


class TestValidate:
    def test_valid_hmm(self):
        report = validate(hmm_params(0.9, -0.2))
        assert report.ok and report.is_hmm

    def test_duplicate_variable_degeneracy(self):
        report = validate(PmmParams(1.0, 0, 0, 0, 0))
        assert not report.gamma_pd
        assert not report.ok

    def test_fig4_params_admissible(self):
        report = validate(FIG4_PARAMS)
        assert report.ok and not report.is_hmm

    def test_hmm_noise_matches_classic_form(self):
        # Expanding the Markov-form noise under the HMM constraints must
        # reproduce the classic-representation noise covariance.
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b = rng.uniform(-0.95, 0.95, size=2)
            m = markov_form(hmm_params(a, b))
            classic = np.array(
                [
                    [1 - a * a, b * (1 - a * a)],
                    [b * (1 - a * a), 1 - a * a * b * b],
                ]
            )
            np.testing.assert_allclose(m.Q, classic, atol=1e-12)

    def test_noise_floor_at_least_the_gamma_floor(self):
        # Q is the Schur complement of the marginal in gamma, so its least
        # eigenvalue is at least gamma's: the bound on the innovation variance
        # that riccati.DEGENERATE_DENOMINATOR's comment cites.  Both are
        # computed in floats, so Q's may fall short by 4 ulps of 1.0.
        rng = np.random.default_rng(39)
        models = [
            *(p for name in PRESET_NAMES for p in get_preset(name)[1:3]),
            *REAL_EXAMPLES.values(),
            *(random_valid_params(rng) for _ in range(1000)),
        ]
        for p in models:
            report = validate(p)
            assert report.ok
            assert report.q_min_eigenvalue >= report.gamma_min_eigenvalue - 4 * math.ulp(1.0)

    def test_singular_marginal_reported(self):
        report = validate(PmmParams(0.2, 1.0, 0.2, 0.2, 0.2))
        assert not report.ok
        assert report.spectral_radius == float("inf")

    # Their transition form would overflow; no warning may escape.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values", [(0.0, 0.0, 0.0, 0.0, 1e154), (1e300, 0.0, 0.0, 0.0, 0.0)])
    def test_huge_covariances_reported_quietly(self, values):
        report = validate(PmmParams(*values))
        assert not report.ok
        assert report.spectral_radius == float("inf")


class TestValidateAgainstLapack:
    """The float gate against numpy's LAPACK eigenvalue routines."""

    @staticmethod
    def lapack_report(p: PmmParams) -> tuple[float, float, float, bool]:
        gamma_min = float(np.linalg.eigvalsh(np.array(gamma_from_params(p))).min())
        if not (abs(p.b) < 1.0 and max(map(abs, p)) <= 1.0):
            return gamma_min, float("nan"), float("inf"), False
        a_mat, q_mat = (np.array(m) for m in _transition(p))
        q_min = float(np.linalg.eigvalsh(q_mat).min())
        radius = float(np.abs(np.linalg.eigvals(a_mat)).max())
        ok = gamma_min > PD_TOL and q_min >= -PD_TOL and radius < 1.0 - SPECTRAL_TOL
        return gamma_min, q_min, radius, ok

    def test_random_and_boundary_scaled_sets(self):
        rng = np.random.default_rng(17)
        sets = []
        for _ in range(700):
            p = PmmParams(*map(float, rng.uniform(-1.0, 1.0, size=5)))
            # gamma(f) = I + f (gamma - I) for the set scaled by f, so its
            # smallest eigenvalue is linear in f: it meets PD_TOL at f = edge.
            # The scaled sets lie 1e-6 and 1e-3 (relative) to either side.
            lowest = np.linalg.eigvalsh(np.array(gamma_from_params(p)) - np.eye(4)).min()
            edge = (1.0 - PD_TOL) / -lowest
            sets += [p] + [p.scaled(edge * (1.0 + s)) for s in (-1e-3, -1e-6, 1e-6, 1e-3)]
        admissible = 0
        for p in sets:
            gamma_min, q_min, radius, ok = self.lapack_report(p)
            report = validate(p)
            assert abs(report.gamma_min_eigenvalue - gamma_min) <= 1e-14
            if math.isfinite(radius):
                q_scale = max(1.0, np.abs(_transition(p)[1]).max())
                assert abs(report.q_min_eigenvalue - q_min) <= 1e-14 * q_scale
                assert report.spectral_radius == pytest.approx(radius, rel=1e-12)
            assert report.ok == ok
            admissible += ok
        assert len(sets) >= 3000
        # Both verdicts occur, on both sides of the boundary.
        assert 500 < admissible < len(sets) - 500

    def test_jacobi_rotation_with_a_tiny_off_diagonal_entry(self):
        # theta = (a_qq - a_pp) / (2 a_pq) would overflow when squared.
        rows = ((1.0, 1e-170, 0.0), (1e-170, 0.5, 1e-300), (0.0, 1e-300, 0.25))
        assert _min_eigenvalue(rows) == 0.25
        rows = ((2.0, 1e-200), (1e-200, 2.0))
        assert _min_eigenvalue(rows) == 2.0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(FIG2_PARAMS, path)
        assert load_params(path) == FIG2_PARAMS
        doc = json.loads(path.read_text())
        assert set(doc) == {"a", "b", "c", "d", "e"}

    def test_load_accepts_nested_model_document(self, tmp_path):
        path = tmp_path / "model.json"
        FittedModel(FIG2_PARAMS, StandardizationParams(0.3, 1.7)).save(path)
        assert load_params(path) == FIG2_PARAMS

    # A document is a fitted model if and only if it has a params key.
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"params": 1, **FIG2_PARAMS._asdict()},
             "parameters must be an object with keys a..e, got int"),
            ({"params": None, **FIG2_PARAMS._asdict()},
             "parameters must be an object with keys a..e, got NoneType"),
            ({}, "invalid parameters: missing a, b, c, d, e"),
            ({"detrend": None}, "invalid parameters: missing a, b, c, d, e"),
        ],
    )
    def test_params_key_decides_the_document(self, tmp_path, doc, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_params(path)

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"a": 0.9, "c": 0.0, "d": 0.0, "e": 0.0}, ["missing b"]),
            ({"a": 0.9, "b": "x", "c": None, "d": 0.0, "e": 0.0}, ["b, c"]),
            ({"a": float("nan"), "b": 0.1, "d": 0.0, "e": 0.0}, ["missing c", ": a"]),
            ([0.9, 0.1, 0.0, 0.0, 0.0], ["keys a..e"]),
        ],
    )
    def test_bad_document_names_the_keys(self, doc, named):
        with pytest.raises(ValueError) as info:
            PmmParams.from_dict(doc)
        for text in named:
            assert text in str(info.value)


# One instance of each value type that holds no array, built twice by its
# factory, and its repr.
VALUE_TYPES = {
    "PmmParams": (
        lambda: PmmParams(0.5, -0.25, 0.125, -0.0625, 0.0),
        "PmmParams(a=0.5, b=-0.25, c=0.125, d=-0.0625, e=0.0)",
    ),
    "TransitionModel": (
        lambda: TransitionModel(((0.5, 0.25), (0.0, 0.75)), ((1.0, 0.0), (0.0, 1.0)),
                                ((1.0, -0.25), (-0.25, 1.0))),
        "TransitionModel(A=((0.5, 0.25), (0.0, 0.75)), Q=((1.0, 0.0), (0.0, 1.0)), "
        "marginal=((1.0, -0.25), (-0.25, 1.0)))",
    ),
    "ValidationReport": (
        lambda: ValidationReport(0.5, True, 0.25, True, 0.75, True, False),
        "ValidationReport(gamma_min_eigenvalue=0.5, gamma_pd=True, q_min_eigenvalue=0.25, "
        "q_psd=True, spectral_radius=0.75, spectral_ok=True, is_hmm=False)",
    ),
    "MseCurve": (
        lambda: MseCurve("PMM", "k", ((1, 0.5), (2, 0.75)), 5),
        "MseCurve(model_label='PMM', sweep_variable='k', points=((1, 0.5), (2, 0.75)), "
        "fixed_n=5)",
    ),
    "ForecastResult": (
        lambda: ForecastResult(3, 0.25, 0.5),
        "ForecastResult(horizon=3, mean=0.25, variance=0.5)",
    ),
    "FilterState": (
        lambda: FilterState(4, 0.25, 0.5, -1.5),
        "FilterState(n=4, mean=0.25, variance=0.5, last_y=-1.5)",
    ),
    "SweepPreset": (
        lambda: SweepPreset("x", PmmParams(0, 0, 0, 0, 0), PmmParams(0, 0, 0, 0, 0), (1,), (0,)),
        "SweepPreset(name='x', true_params=PmmParams(a=0, b=0, c=0, d=0, e=0), "
        "hmm_reference=PmmParams(a=0, b=0, c=0, d=0, e=0), n_values=(1,), k_values=(0,))",
    ),
    "StandardizationParams": (
        lambda: StandardizationParams(0.5, 2.0),
        "StandardizationParams(mean=0.5, std=2.0)",
    ),
    "DetrendModel": (
        lambda: DetrendModel((1.0, 0.5, -0.5, 0.25, 0.0), (24.0, 8772.0), 2.0),
        "DetrendModel(theta=(1.0, 0.5, -0.5, 0.25, 0.0), periods=(24.0, 8772.0), sigma=2.0)",
    ),
    "FittedModel": (
        lambda: FittedModel(
            PmmParams(0.5, -0.25, 0.125, -0.0625, 0.0), StandardizationParams(0.5, 2.0),
            detrend=DetrendModel((1.0, 0.5, -0.5, 0.25, 0.0), (24.0, 8772.0), 2.0),
            fit_window=(0, 100),
        ),
        "FittedModel(params=PmmParams(a=0.5, b=-0.25, c=0.125, d=-0.0625, e=0.0), "
        "x_standardize=StandardizationParams(mean=0.5, std=2.0), "
        "y_standardize=StandardizationParams(mean=0.0, std=1.0), "
        "detrend=DetrendModel(theta=(1.0, 0.5, -0.5, 0.25, 0.0), periods=(24.0, 8772.0), "
        "sigma=2.0), fit_window=(0, 100), repaired=False)",
    ),
}


class TestValueTypes:
    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_repr(self, name):
        make, text = VALUE_TYPES[name]
        assert repr(make()) == text

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_fields_are_read_only(self, name):
        value = VALUE_TYPES[name][0]()
        for field in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, 1.0)
        with pytest.raises(AttributeError):
            value.not_a_field = 1.0
        assert value == VALUE_TYPES[name][0]()

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_equal_values_are_equal_and_hash_alike(self, name):
        first, second = VALUE_TYPES[name][0](), VALUE_TYPES[name][0]()
        assert first is not second and first == second
        assert hash(first) == hash(second)

    def test_equal_params_share_one_horizon_pass(self):
        copy = PmmParams.from_dict(FIG2_PARAMS._asdict())
        assert copy is not FIG2_PARAMS
        assert len(error_analysis._horizons((FIG2_PARAMS, copy), [0, 1])) == 1

    def test_params_methods(self):
        p = PmmParams(0.5, -0.25, 0.125, -0.0625, 0.0)
        assert tuple(p) == (0.5, -0.25, 0.125, -0.0625, 0.0)
        assert p._asdict() == {"a": 0.5, "b": -0.25, "c": 0.125, "d": -0.0625, "e": 0.0}
        assert type(p._asdict()) is dict
        assert PmmParams.from_dict(p._asdict()) == p
        assert p.scaled(0.5) == PmmParams(0.25, -0.125, 0.0625, -0.03125, 0.0)
        assert type(p.scaled(0.5)) is PmmParams

    def test_report_ok_and_summary(self):
        report = VALUE_TYPES["ValidationReport"][0]()
        assert report.ok is True
        assert report.summary() == (
            "gamma_pd=True (min eig 5.000e-01); q_psd=True (min eig 2.500e-01); "
            "spectral_ok=True (radius 0.750000); is_hmm=False"
        )
        for flag in ("gamma_pd", "q_psd", "spectral_ok"):
            assert report._replace(**{flag: False}).ok is False
        assert validate(FIG2_PARAMS).ok and not validate(FIG2_PARAMS.scaled(2.0)).ok

    def test_transition_model_b(self):
        assert VALUE_TYPES["TransitionModel"][0]().b == -0.25
        assert markov_form(FIG2_PARAMS).b == FIG2_PARAMS.b

    def test_curve_label(self):
        assert VALUE_TYPES["MseCurve"][0]().csv_label == "PMM(n=5)"
        plain = MseCurve("HMM", "n", ())
        assert plain.csv_label == "HMM" and plain.fixed_n is None
        assert MseCurve("PMM", "n", ()).csv_label == "PMM"
