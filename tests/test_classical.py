import warnings

import numpy as np
import pytest

from otoclab.classical import CAT_LYAPUNOV, _cat_power, _logsumexp, ehrenfest_time, lyapunov
from otoclab.maps import cat_map, classical_step, harper_map, standard_map


def test_cat_power_identity_and_base():
    assert _cat_power(0) == (1, 0, 0, 1)
    assert _cat_power(1) == (2, 1, 1, 1)


def test_cat_power_small_values():
    assert _cat_power(2)[0] == 5
    assert _cat_power(3) == (13, 8, 8, 5)
    assert _cat_power(4)[0] == 34


def test_cat_power_trace_recurrence_and_det():
    a = {t: _cat_power(t)[0] for t in range(4, 42)}
    for t in range(5, 41):
        assert a[t + 1] == 3 * a[t] - a[t - 1]
    ba, bb, bc, bd = _cat_power(200)
    assert ba * bd - bb * bc == 1  # exact integers, no overflow


def test_cat_power_growth_rate():
    # ln(a_t) = lambda_L t + ln(phi/sqrt(5)) + o(1), an offset of -0.3235,
    # so the 0.05 band on ln(a_t)/t is entered at t = 7
    for t in range(7, 41):
        assert abs(np.log(_cat_power(t)[0]) / t - CAT_LYAPUNOV) < 0.05
    for t in range(5, 41):
        offset = np.log((1 + np.sqrt(5)) / 2) - np.log(np.sqrt(5))
        assert abs(np.log(_cat_power(t)[0]) - CAT_LYAPUNOV * t - offset) < 1e-2


def test_cat_power_mod_n_agrees_with_the_exact_power():
    for n in (2, 3, 8, 1000, 1024):
        for t in list(range(60)) + [200, 1001]:
            assert _cat_power(t, n) == tuple(x % n for x in _cat_power(t)), (n, t)


def test_cat_power_rejects_negative():
    for t in (-1, 2.5, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-negative integer"):
            _cat_power(t)


def test_lyapunov_cat_unperturbed_exact():
    est = lyapunov(cat_map(0.0), n_traj=16, t_horizon=200, seed=0)
    # constant symmetric tangent map: warmup alignment gives machine accuracy
    assert abs(est.lam - CAT_LYAPUNOV) < 1e-9
    assert abs(est.lam_generalized - CAT_LYAPUNOV) < 1e-9
    assert est.standard_error < 1e-10


def test_lyapunov_standard_map_matches_large_kick_estimate():
    est = lyapunov(standard_map(19.74), n_traj=100, t_horizon=400, seed=1)
    assert abs(est.lam - np.log(19.74 / 2)) / np.log(19.74 / 2) < 0.10


def test_lyapunov_standard_map_against_separation_oracle():
    """Two-trajectory separation growth with per-step rescaling, fully
    independent of the tangent-map code path."""
    spec = standard_map(19.74)
    rng = np.random.default_rng(9)
    delta0, horizon = 1e-9, 200
    rates = []
    for _ in range(100):
        x = np.array(rng.random(2))
        y = x + np.array([delta0, 0.0])
        log_growth = 0.0
        for _ in range(horizon):
            x = np.array(classical_step(spec, x))
            y = np.array(classical_step(spec, y))
            sep = (y - x + 0.5) % 1.0 - 0.5
            d = np.hypot(*sep)
            log_growth += np.log(d / delta0)
            y = x + sep * (delta0 / d)
        rates.append(log_growth / horizon)
    est = lyapunov(spec, n_traj=100, t_horizon=400, seed=1)
    assert abs(np.mean(rates) - est.lam) / est.lam < 0.10


@pytest.mark.parametrize("spec", [cat_map(0.3), standard_map(19.74), harper_map(0.94)])
def test_lyapunov_stable_under_doubling(spec):
    # sampling sized so the residual statistical drift sits below the band
    a = lyapunov(spec, n_traj=400, t_horizon=2000, seed=4)
    b = lyapunov(spec, n_traj=800, t_horizon=4000, seed=4)
    assert abs(a.lam - b.lam) < 1e-3


def test_generalized_exponent_dominates():
    for spec in [cat_map(0.02), standard_map(19.74), harper_map(0.94)]:
        est = lyapunov(spec, n_traj=60, t_horizon=300, seed=8)
        assert est.lam_generalized >= est.lam - 1e-12


def test_lyapunov_deterministic_given_seed():
    a = lyapunov(harper_map(0.94), n_traj=40, t_horizon=120, seed=123)
    b = lyapunov(harper_map(0.94), n_traj=40, t_horizon=120, seed=123)
    assert a.lam == b.lam and a.lam_generalized == b.lam_generalized


def test_lyapunov_validates_horizon():
    with pytest.raises(ValueError):
        lyapunov(cat_map(0.0), n_traj=10, t_horizon=5, seed=0)


@pytest.mark.xfail(strict=True, reason=(
    "the quantization-consistent perturbation carries a 2 pi k sine amplitude, "
    "and at k=0.02 small sticky structures already pull lambda ~7% below the "
    "unperturbed value; the stated 2% band does not hold for this map family"))
def test_lyapunov_cat_small_k_within_two_percent():
    est = lyapunov(cat_map(0.02), n_traj=200, t_horizon=800, seed=2)
    assert abs(est.lam - CAT_LYAPUNOV) / CAT_LYAPUNOV < 0.02


def test_lyapunov_cat_small_k_measured_band():
    # measured behavior of this family at k=0.02 (see decisions ledger)
    est = lyapunov(cat_map(0.02), n_traj=200, t_horizon=800, seed=2)
    assert 0.82 < est.lam < 0.99
    assert est.lam_generalized >= est.lam


def test_ehrenfest_time_values():
    assert ehrenfest_time(1024, 0.9624) == pytest.approx(7.20, abs=0.01)
    assert ehrenfest_time(1000, 0.9624) == pytest.approx(7.18, abs=0.01)
    assert ehrenfest_time(4, np.log(4.0)) == pytest.approx(1.0, abs=1e-12)


def test_ehrenfest_time_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ehrenfest_time(1024, 0.0)
    with pytest.raises(ValueError):
        ehrenfest_time(1024, -1.0)
    with pytest.raises(ValueError):
        ehrenfest_time(1, 1.0)


@pytest.mark.parametrize("n, lam, name", [(float("nan"), 1.0, "dimension n"),
                                          (8.5, 1.0, "dimension n"), (-8, 1.0, "dimension n"),
                                          (8, float("nan"), "lam"), (8, float("inf"), "lam")])
def test_ehrenfest_time_refuses_non_finite_and_fractional_inputs(n, lam, name):
    """NaN gave NaN, 8.5 gave a value and an infinite exponent gave 0."""
    with pytest.raises(ValueError, match=name):
        ehrenfest_time(n, lam)


@pytest.mark.parametrize("spec", [cat_map(1e308), cat_map(3e75), standard_map(1e308),
                                  harper_map(-1e100)])
def test_lyapunov_refuses_a_map_parameter_whose_tangent_norm_overflows(spec):
    """Each of these gave lambda = nan: the tangent vector's squared norm overflowed and
    its renormalization divided inf by inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="map parameter .* is too large"):
            lyapunov(spec, n_traj=2, t_horizon=10)


def test_lyapunov_runs_below_the_tangent_norm_bound():
    """cat at k = 2e75, the last power of ten's step below the bound, gives a finite
    exponent, as it did before the bound."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(lyapunov(cat_map(2e75), n_traj=2, t_horizon=10).lam)


def test_logsumexp_bit_identical_to_scipy():
    """The numpy copy must reproduce scipy to the bit, so lambda_generalized
    keeps its bytes: ties of the maximum, single elements and wide ranges."""
    from scipy.special import logsumexp

    rng = np.random.default_rng(20)
    cases = [np.array([3.5]), np.array([-700.0]), np.zeros(7), np.array([1.0, 1.0])]
    for i in range(3000):
        n = int(rng.integers(1, 300))
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 3)
        if i % 2:
            a[rng.integers(0, n, size=int(rng.integers(1, n + 1)))] = a.max()
        cases.append(a)
    for a in cases:
        assert _logsumexp(a) == logsumexp(a), a
