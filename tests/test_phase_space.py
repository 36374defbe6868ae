import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from otoclab import phase_space
from otoclab.classical import lyapunov
from otoclab.coarse_graining import (apply_dephasing_chord, apply_dephasing_dense, build_kernel,
                                     channel_step, evolve)
from otoclab.maps import apply_map, cat_map, heisenberg_conjugate, quantize
from otoclab.otoc import (fit_growth, fit_lyapunov_from_otoc, loglinear_fit, otoc_series,
                          otoc_via_commutator)
from otoclab.phase_space import (MOMENTUM, POSITION, TorusSpace, change_basis,
                                 chord_inverse, chord_transform, clock_u, coherent_state,
                                 hermitian_f, hermiticity_defect, shift_v, sine_momentum,
                                 sine_position, symplectic_product, translation)
from otoclab.phase_space import _write_f
from otoclab.resonances import (dense_superoperator, fit_tail_rate, full_spectrum,
                                krylov_leading, random_traceless_hermitian,
                                spectral_o1_prediction)


def test_torus_space_rejects_small_dims():
    with pytest.raises(ValueError):
        TorusSpace(1)
    with pytest.raises(ValueError):
        TorusSpace(0)


@pytest.mark.parametrize("n", [2, 3, 7, 64, 1000])
def test_tau_is_2n_th_root_of_unity(n):
    space = TorusSpace(n)
    assert abs(space.tau ** (2 * n) - 1.0) < 1e-12
    assert abs(abs(space.tau) - 1.0) < 1e-15


def test_shift_n2_is_swap():
    v = shift_v(TorusSpace(2))
    assert np.array_equal(v, np.array([[0, 1], [1, 0]], dtype=complex))


def test_shift_periodicity_n3():
    v = shift_v(TorusSpace(3))
    assert np.abs(v @ v @ v - np.eye(3)).max() < 1e-15


def test_shift_wraps_last_basis_column():
    v = shift_v(TorusSpace(8))
    e7 = np.zeros(8)
    e7[7] = 1.0
    out = v @ e7
    assert out[0] == 1.0 and np.abs(out[1:]).max() == 0.0


def test_clock_entries():
    u4 = clock_u(TorusSpace(4))
    assert abs(u4[1, 1] - 1j) < 1e-15
    u2 = clock_u(TorusSpace(2))
    assert np.allclose(np.diag(u2), [1, -1])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 17])
def test_clock_traceless_and_unitary(n):
    u = clock_u(TorusSpace(n))
    assert abs(np.trace(u)) < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(u, n) - np.eye(n)).max() < 1e-10


def test_symplectic_product_values():
    # sign fixed so that the evolved sine pair reproduces the cat OTOC law
    assert symplectic_product((1, 0), (0, 1)) == -1
    assert symplectic_product((2, 3), (5, 7)) == 1
    for xi in [(0, 0), (1, 2), (-3, 5)]:
        assert symplectic_product(xi, xi) == 0
    assert symplectic_product((1, 2), (3, 4)) == -symplectic_product((3, 4), (1, 2))


@pytest.mark.parametrize("make", [lambda xi: translation(TorusSpace(8), xi),
                                  lambda xi: hermitian_f(TorusSpace(8), xi),
                                  lambda xi: symplectic_product(xi, (0, 1))],
                         ids=["translation", "hermitian_f", "symplectic_product"])
@pytest.mark.parametrize("xi", [(0.5, 1), (1.5, 0), (float("nan"), 0), (0, float("inf")),
                                (1, 2, 3), 5])
def test_displacements_must_be_two_integers(make, xi):
    """(0.5, 1) was truncated to (0, 1), and NaN raised without naming the argument."""
    with pytest.raises(ValueError, match=r"^xi must be two integers, got"):
        make(xi)


def test_integral_displacements_of_any_type_pass():
    space = TorusSpace(8)
    for xi in [(1.0, np.int64(-2)), np.array([1, -2]), (np.float32(1), -2.0)]:
        assert np.array_equal(translation(space, xi), translation(space, (1, -2)))
        assert np.array_equal(hermitian_f(space, xi), hermitian_f(space, (1, -2)))
        assert symplectic_product(xi, (3, 4)) == symplectic_product((1, -2), (3, 4)) == -10
    with pytest.raises(ValueError, match=r"^chi must be two integers, got \(0, 0.5\)"):
        symplectic_product((1, 0), (0, 0.5))


def test_translation_generators():
    space = TorusSpace(6)
    assert np.abs(translation(space, (0, 0)) - np.eye(6)).max() == 0.0
    assert np.array_equal(translation(space, (1, 0)), shift_v(space))
    assert np.array_equal(translation(space, (0, 1)), clock_u(space))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_translation_algebra_exhaustive(n):
    """T_xi T_chi = tau^<xi,chi> T_{xi+chi}, commutator included, all pairs."""
    space = TorusSpace(n)
    ts = {(a, b): translation(space, (a, b)) for a in range(n) for b in range(n)}
    worst_prod = 0.0
    worst_comm = 0.0
    for (aq, ap), ta in ts.items():
        for (bq, bp), tb in ts.items():
            s = symplectic_product((aq, ap), (bq, bp))
            tsum = translation(space, (aq + bq, ap + bp))
            lhs = ta @ tb
            worst_prod = max(worst_prod, np.abs(lhs - space.tau_power(s) * tsum).max())
            comm = lhs - tb @ ta
            target = 2j * np.sin(np.pi * s / n) * tsum
            worst_comm = max(worst_comm, np.abs(comm - target).max())
    assert worst_prod < 1e-12
    assert worst_comm < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_translations_orthogonal(n):
    space = TorusSpace(n)
    vecs = [(a, b) for a in range(n) for b in range(n)]
    for xi in vecs:
        txi = translation(space, xi)
        for chi in vecs:
            tchi = translation(space, chi)
            overlap = np.trace(txi.conj().T @ tchi) / n
            expected = 1.0 if xi == chi else 0.0
            assert abs(overlap - expected) < 1e-12


def test_translation_unitary_large_components():
    space = TorusSpace(8)
    t = translation(space, (13, -5))
    assert np.abs(t.conj().T @ t - np.eye(8)).max() < 1e-12


def test_sine_position_n4():
    x = sine_position(TorusSpace(4))
    assert np.allclose(x, np.diag([0.0, 1.0, 0.0, -1.0]), atol=1e-15)


@pytest.mark.parametrize("n", [3, 4, 7, 32])
def test_sine_operators_traceless_with_half_second_moment(n):
    space = TorusSpace(n)
    for e in (sine_position(space), sine_momentum(space)):
        assert hermiticity_defect(e) < 1e-14
        assert abs(np.trace(e)) < 1e-12
        assert abs(np.trace(e @ e) / n - 0.5) < 1e-12


def test_commutator_scales_as_inverse_dimension():
    norms = {}
    for n in [128, 256, 512]:
        space = TorusSpace(n)
        x = sine_position(space)
        p = sine_momentum(space)
        norms[n] = np.linalg.norm(x @ p - p @ x, 2)
    scaled = [norms[n] * n for n in norms]
    assert max(scaled) / min(scaled) < 1.05
    assert norms[512] < 10.0 / 512


def test_hermitian_f_zero_vector():
    assert np.abs(hermitian_f(TorusSpace(5), (0, 0))).max() == 0.0


def test_hermitian_f_matches_sine_operators_bitwise():
    space = TorusSpace(12)
    assert np.array_equal(hermitian_f(space, (1, 0)), sine_momentum(space))
    assert np.array_equal(hermitian_f(space, (0, 1)), sine_position(space))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 12, 64, 1000, 1024])
def test_hermitian_f_bit_identical_to_dense_formula(n):
    """F_xi is written on its two cyclic diagonals; every bit, signed zeros
    included, equals the dense (T - T^dag) / 2i, also where the diagonals
    coincide (xi_q = 0 mod N) or overlap (2 xi_q = 0 mod N)."""
    space = TorusSpace(n)
    rng = np.random.default_rng(n)
    xis = [(0, 0), (0, 1), (1, 0), (n, 3), (n // 2, 1), (3 * n // 2, -2), (n // 2, n // 2)]
    xis += [tuple(int(v) for v in rng.integers(-3 * n, 3 * n, 2)) for _ in range(3)]
    for xi in xis:
        t = translation(space, xi)
        assert hermitian_f(space, xi).tobytes() == ((t - t.conj().T) / 2j).tobytes(), xi


def test_hermitian_f_allocates_one_operator():
    """No dense temporaries beside the result: T, T^dag and their difference are gone."""
    space = TorusSpace(512)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        hermitian_f(space, (1, 1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 16 * 512**2


def test_f_writer_reproduces_translation_based_hermitian_f():
    """The writer gives the bits that hermitian_f had when it started from
    translation(): T's diagonal, then (T - T^dag) / 2i on both diagonals."""
    n = 48
    space = TorusSpace(n)
    q = np.arange(n)
    for xi in [(0, 0), (0, 1), (1, 0), (1, 1), (n // 2, 5), (-7, 3 * n + 1), (2 * n, -n)]:
        f = translation(space, xi)
        rows = (q + xi[0]) % n
        r, c = np.concatenate((rows, q)), np.concatenate((q, rows))
        f[r, c] = (f[r, c] - f[c, r].conj()) / 2j
        assert _write_f(space, xi, np.zeros((n, n), dtype=complex)).tobytes() == f.tobytes(), xi
        assert hermitian_f(space, xi).tobytes() == f.tobytes(), xi


@pytest.mark.parametrize("n", [16, 17, 1024])
def test_f_writer_on_rows_0_to_half_gives_the_rows_of_hermitian_f(n):
    """F_xi written on rows 0 .. N/2 alone has hermitian_f's bits there, also where
    diagonal xi_q is its own transpose (xi_q = 0 or N/2), and no other row is written."""
    space = TorusSpace(n)
    h = n // 2
    for xi in [(1, 0), (0, 1), (1, 1), (2, 3), (h, 1), (0, 0), (h, 0), (0, h), (h, h),
               (-1, 2), (n + 1, 2 * n + 3), (-n - 2, -3 * n + 1)]:
        out = np.full((n, n), np.nan, dtype=complex)
        out[:h + 1] = 0
        _write_f(space, xi, out, h + 1)
        assert out[:h + 1].tobytes() == hermitian_f(space, xi)[:h + 1].tobytes(), xi
        assert np.isnan(out[h + 1:]).all(), xi


@pytest.mark.parametrize("xi", [(1, 1), (2, 3), (3, 1)])
def test_hermitian_f_is_hermitian_traceless(xi):
    space = TorusSpace(4)
    f = hermitian_f(space, xi)
    assert hermiticity_defect(f) < 1e-14
    assert abs(np.trace(f)) < 1e-13


def test_chord_of_identity_is_delta():
    space = TorusSpace(8)
    c = chord_transform(space, np.eye(8, dtype=complex))
    assert abs(c[0, 0] - 1.0) < 1e-13
    c[0, 0] = 0.0
    assert np.abs(c).max() < 1e-13


def test_chord_of_translation_is_unit_coefficient():
    space = TorusSpace(8)
    c = chord_transform(space, translation(space, (2, 3)))
    assert abs(c[2, 3] - 1.0) < 1e-12
    c[2, 3] = 0.0
    assert np.abs(c).max() < 1e-12


def test_chord_round_trip_and_parseval():
    space = TorusSpace(16)
    rng = np.random.default_rng(42)
    raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    a = (raw + raw.conj().T) / 2
    coeffs = chord_transform(space, a)
    back = chord_inverse(space, coeffs)
    assert np.abs(back - a).max() < 1e-10
    hs = np.trace(a.conj().T @ a).real / 16
    assert abs((np.abs(coeffs) ** 2).sum() - hs) < 1e-10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 24), st.integers(0, 2**32 - 1))
def test_chord_transform_round_trips(n, seed):
    space = TorusSpace(n)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    coeffs = chord_transform(space, a)
    assert np.abs(chord_inverse(space, coeffs) - a).max() < 1e-12
    assert abs((np.abs(coeffs) ** 2).sum() - np.linalg.norm(a) ** 2 / n) < 1e-12 * n


def test_change_basis_round_trip_and_momentum_diagonals():
    space = TorusSpace(32)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    there = change_basis(a, POSITION, MOMENTUM)
    back = change_basis(there, MOMENTUM, POSITION)
    assert np.abs(back - a).max() < 1e-12
    # the shift is diagonal in momentum; the clock shifts momentum up by one
    v_mom = change_basis(shift_v(space), POSITION, MOMENTUM)
    p = np.arange(32)
    assert np.abs(v_mom - np.diag(np.exp(-2j * np.pi * p / 32))).max() < 1e-12
    u_mom = change_basis(clock_u(space), POSITION, MOMENTUM)
    assert np.abs(u_mom - shift_v(space)).max() < 1e-12


# every public entry point that takes an operator, called on a map and kernel at N=8
_OPERATOR_ENTRY_POINTS = {
    "evolve": lambda umap, kernel, x: next(evolve(umap, kernel, x, 1)),
    "channel_step": channel_step,
    "apply_dephasing_chord": lambda umap, kernel, x: apply_dephasing_chord(kernel, x),
    "apply_dephasing_dense": lambda umap, kernel, x: apply_dephasing_dense(kernel, x),
    "apply_map": lambda umap, kernel, x: apply_map(umap, x),
    "krylov_leading": lambda umap, kernel, x: krylov_leading(umap, kernel, x, depth=10),
    "otoc_series_A": lambda umap, kernel, x: otoc_series(umap, x, (1, 0), 2, kernel),
    "otoc_series_B": lambda umap, kernel, x: otoc_series(umap, (0, 1), x, 2, kernel),
    "chord_transform": lambda umap, kernel, x: chord_transform(umap.space, x),
    "chord_inverse": lambda umap, kernel, x: chord_inverse(umap.space, x),
    "heisenberg_conjugate": lambda umap, kernel, x: heisenberg_conjugate(umap, x),
    "otoc_via_commutator_A": lambda umap, kernel, x: otoc_via_commutator(
        umap, x, sine_momentum(umap.space), 1, kernel),
    "otoc_via_commutator_B": lambda umap, kernel, x: otoc_via_commutator(
        umap, sine_position(umap.space), x, 1, kernel),
    "spectral_o1_prediction_A": lambda umap, kernel, x: spectral_o1_prediction(
        full_spectrum(dense_superoperator(umap, kernel)), x, sine_momentum(umap.space), 1),
    "spectral_o1_prediction_B": lambda umap, kernel, x: spectral_o1_prediction(
        full_spectrum(dense_superoperator(umap, kernel)), sine_position(umap.space), x, 1),
}


@pytest.mark.parametrize("shape", [(8, 9), (9, 9)], ids=["non-square", "wrong-size"])
@pytest.mark.parametrize("entry", sorted(_OPERATOR_ENTRY_POINTS))
def test_operator_entry_points_refuse_bad_shapes(entry, shape):
    """An operator is an N x N array: each entry point refuses any other shape."""
    space = TorusSpace(8)
    umap, kernel = quantize(cat_map(0.02), space), build_kernel(space, 0.1)
    with pytest.raises(ValueError, match="must be square|dimension mismatch"):
        _OPERATOR_ENTRY_POINTS[entry](umap, kernel, np.zeros(shape, dtype=complex))


# every public entry point that takes a count, a size or a real coordinate, called on
# the cat map at N=8, keyed by the argument's name
_COUNT_ENTRY_POINTS = {
    "t_max": lambda umap, k: otoc_series(umap, (0, 1), (1, 0), k),
    "steps": lambda umap, k: next(evolve(umap, None, sine_position(umap.space), k)),
    "depth": lambda umap, k: krylov_leading(umap, None, sine_position(umap.space), depth=k),
    "n_wanted": lambda umap, k: krylov_leading(umap, None, sine_position(umap.space), depth=10,
                                               n_wanted=k),
    "n_traj": lambda umap, k: lyapunov(umap.map_spec, n_traj=k, t_horizon=10),
    "t_horizon": lambda umap, k: lyapunov(umap.map_spec, n_traj=2, t_horizon=k),
    "torus dimension": lambda umap, k: TorusSpace(k),
    "t_start": lambda umap, k: fit_tail_rate(otoc_series(umap, (0, 1), (1, 0), 12), k, 9),
    "t_end": lambda umap, k: fit_tail_rate(otoc_series(umap, (0, 1), (1, 0), 12), 0, k),
    "window start": lambda umap, k: fit_growth(otoc_series(umap, (0, 1), (1, 0), 8), (k, 5)),
    "window end": lambda umap, k: fit_growth(otoc_series(umap, (0, 1), (1, 0), 8), (1, k)),
    "seed": lambda umap, k: lyapunov(umap.map_spec, n_traj=2, t_horizon=10, seed=k),
    "t": lambda umap, k: spectral_o1_prediction(full_spectrum(dense_superoperator(umap, None)),
                                                sine_position(umap.space),
                                                sine_momentum(umap.space), k),
    "q0": lambda umap, k: coherent_state(umap.space, k, 0.0),
    "p0": lambda umap, k: coherent_state(umap.space, 0.0, k),
}
_NON_INTEGRAL = [2.5, 20.5, float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("value", _NON_INTEGRAL)
@pytest.mark.parametrize("name", [n for n in _COUNT_ENTRY_POINTS if n not in ("q0", "p0")])
def test_counts_and_sizes_refuse_non_integral_values(name, value):
    """A fractional, NaN or infinite count or size is refused with a ValueError that names
    it (numpy's TypeError, an OverflowError or NaN's int conversion error before)."""
    umap = quantize(cat_map(0.02), TorusSpace(8))
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        _COUNT_ENTRY_POINTS[name](umap, value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1j])
@pytest.mark.parametrize("name", ["q0", "p0"])
def test_coherent_state_refuses_a_centre_that_is_not_finite(name, value):
    """A NaN centre used to return a NaN state."""
    with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
        _COUNT_ENTRY_POINTS[name](quantize(cat_map(0.02), TorusSpace(8)), value)


@settings(max_examples=60, deadline=None)
@example("torus dimension", float("nan"))
@example("torus dimension", float("inf"))
@example("t_max", 2.5)
@example("n_traj", 2.5)
@example("depth", 20.5)
@example("steps", 2.5)
@example("q0", float("nan"))
@example("t_start", 2.5)  # fitted t = 3..9 but recorded the window as (2, 9)
@example("t", 2.5)  # returned a value computed from alpha^2.5
@example("window start", 1.5)  # fitted t = 1..5 and recorded the window as (1, 5)
@example("window start", float("nan"))  # "cannot convert float NaN to integer"
@example("seed", float("nan"))  # numpy's SeedSequence TypeError
@given(st.sampled_from(sorted(_COUNT_ENTRY_POINTS)),
       st.floats().filter(lambda x: not x.is_integer()) | st.integers(-10**6, -1))
def test_every_count_size_and_centre_refuses_bad_values(name, value):
    """Whatever the bad value, a ValueError names the argument: non-integral or negative
    counts, sizes below 2 and non-finite centres."""
    if name in ("q0", "p0") and np.isfinite(value):
        value = float("nan")  # any finite centre is a valid one
    umap = quantize(cat_map(0.02), TorusSpace(8))
    with pytest.raises(ValueError, match=f"^{name} must be"):
        _COUNT_ENTRY_POINTS[name](umap, value)


def _fit_lyapunov(window):
    series = otoc_series(quantize(cat_map(0.02), TorusSpace(8)), (0, 1), (1, 0), 8)
    return fit_lyapunov_from_otoc(series, window)


# entry points that named no argument on a bad value: (the message's start, the call)
_NAMED_REFUSALS = {
    "commutator t_max": ("t_max must be an integer", lambda space: otoc_via_commutator(
        quantize(cat_map(0.02), space), sine_position(space), sine_momentum(space), 2.5)),
    "loglinear_fit NaN value": ("values entries must be finite",
                                lambda space: loglinear_fit(np.arange(3), [1.0, np.nan, 2.0])),
    "build_kernel None": ("epsilon must be finite", lambda space: build_kernel(space, None)),
    "random seed NaN": ("seed must be an integer",
                        lambda space: random_traceless_hermitian(space, float("nan"))),
    "fit_lyapunov window start": ("window start must be an integer",
                                  lambda space: _fit_lyapunov((1.5, 5))),
    "fit_lyapunov window end": ("window end must be an integer",
                                lambda space: _fit_lyapunov((1, float("nan")))),
}


@pytest.mark.parametrize("case", sorted(_NAMED_REFUSALS))
def test_bad_values_are_refused_by_name(case):
    """Each of these raised a TypeError from numpy or Python, returned NaN or fitted a
    truncated window; each is now a ValueError that names the argument."""
    message, call = _NAMED_REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{message}"):
        call(TorusSpace(8))


# every public entry point that takes an operator or a displacement, called on the cat
# map at N=8: (the argument's name in the error, the call)
_OPERAND_ENTRY_POINTS = {
    "otoc_series a": ("operator A", lambda umap, x: otoc_series(umap, x, (1, 0), 2)),
    "otoc_series b": ("operator B", lambda umap, x: otoc_series(umap, (0, 1), x, 2)),
    "hermitian_f": ("xi", lambda umap, x: hermitian_f(umap.space, x)),
    "translation": ("xi", lambda umap, x: translation(umap.space, x)),
    "chord_transform": ("operator", lambda umap, x: chord_transform(umap.space, x)),
    "chord_inverse": ("chord coefficients", lambda umap, x: chord_inverse(umap.space, x)),
    "change_basis": ("operator", lambda umap, x: change_basis(x, POSITION, MOMENTUM)),
    "change_basis same basis": ("operator", lambda umap, x: change_basis(x, POSITION, POSITION)),
    "heisenberg_conjugate": ("operator", lambda umap, x: heisenberg_conjugate(umap, x)),
    "apply_dephasing_chord": ("operator", lambda umap, x: apply_dephasing_chord(
        build_kernel(umap.space, 0.1), x)),
    "channel_step": ("operator", lambda umap, x: channel_step(umap, None, x)),
    "evolve": ("operator", lambda umap, x: next(evolve(umap, None, x, 2))),
    "krylov_leading": ("Krylov seed", lambda umap, x: krylov_leading(umap, None, x, depth=10)),
    "otoc_via_commutator a": ("operator A", lambda umap, x: otoc_via_commutator(
        umap, x, sine_momentum(umap.space), 2)),
    "otoc_via_commutator b": ("operator B", lambda umap, x: otoc_via_commutator(
        umap, sine_position(umap.space), x, 2)),
}
_NON_INTEGRAL_FLOATS = st.floats().filter(lambda x: not x.is_integer())
_SMALL = st.integers(-10, 10)
_BAD_OPERANDS = (
    # a displacement with a fractional, NaN or infinite entry
    st.tuples(st.just("pair"), _NON_INTEGRAL_FLOATS, _SMALL)
    | st.tuples(st.just("pair"), _SMALL, _NON_INTEGRAL_FLOATS)
    # a displacement of the wrong length
    | st.tuples(st.just("list"), st.lists(_SMALL, max_size=5).filter(lambda v: len(v) != 2))
    # the sine operator with one NaN or infinite entry
    | st.tuples(st.just("entry"), st.integers(0, 7), st.integers(0, 7),
                st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf)]))
    # an array of the wrong shape; a shape (2,) array is a displacement
    | st.tuples(st.just("shape"), st.lists(st.integers(0, 9), max_size=3).map(tuple)
                .filter(lambda s: s not in ((8, 8), (2,)))))


def _bad_operand(space, bad):
    kind, *args = bad
    if kind == "pair":
        return tuple(args)
    if kind == "list":
        return args[0]
    if kind == "entry":
        i, j, value = args
        x = sine_position(space)
        x[i, j] = value
        return x
    return np.zeros(args[0])


@settings(max_examples=120, deadline=None)
@example("otoc_series a", ("pair", 0.5, 1))
@example("otoc_series b", ("entry", 0, 0, np.nan))
@example("hermitian_f", ("list", [1, 2, 3]))
@example("evolve", ("entry", 0, 0, np.nan))
@example("channel_step", ("entry", 3, 5, np.inf))
@example("chord_transform", ("entry", 1, 2, np.nan))
@example("krylov_leading", ("shape", (8, 7)))
@example("otoc_via_commutator a", ("entry", 0, 0, np.nan))  # returned NaN
@example("chord_inverse", ("entry", 0, 0, np.nan))  # returned NaN
@example("change_basis", ("entry", 2, 1, np.nan))  # returned NaN
@example("change_basis same basis", ("entry", 2, 1, np.nan))  # returned its input
@example("heisenberg_conjugate", ("entry", 4, 4, np.nan))  # returned NaN
@example("apply_dephasing_chord", ("entry", 1, 0, np.nan))  # returned NaN
@given(st.sampled_from(sorted(_OPERAND_ENTRY_POINTS)), _BAD_OPERANDS)
def test_every_operator_and_displacement_refuses_bad_values(entry, bad):
    """A displacement with a fractional, NaN or infinite entry or of the wrong length, an
    operator with a NaN or infinite entry, and an array of the wrong shape are each
    refused with a ValueError that names the argument (evolve, channel_step,
    chord_transform and the linear oracles computed NaN from a non-finite operator
    before).  change_basis takes no map, so any square array is an operator to it."""
    assume(not (entry.startswith("change_basis") and bad[0] == "shape" and len(bad[1]) == 2
                and bad[1][0] == bad[1][1]))
    umap = quantize(cat_map(0.02), TorusSpace(8))
    name, call = _OPERAND_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=name):
        call(umap, _bad_operand(umap.space, bad))


def _mirror(x):
    neg = -np.arange(x.shape[0]) % x.shape[0]
    return x[np.ix_(neg, neg)]


def test_sector_geometry_covers_each_mirror_pair_once():
    """In the odd sector the held rows 0 .. rows - 1 are the paired and the fixed ones, a
    paired row's mirror N - r is not held, a fixed row is its own mirror, and every row
    is held or mirrors a paired one; without a sector all N rows are paired, none fixed."""
    for n in range(2, 18):
        for odd in (True, False):
            rows, paired, fixed = phase_space._sector(n, odd)
            paired, fixed = list(range(n)[paired]), list(range(n)[fixed])
            if not odd:
                assert (rows, paired, fixed) == (n, list(range(n)), []), n
                continue
            assert sorted(paired + fixed) == list(range(rows)), n
            assert all(n - r >= rows for r in paired), n
            assert all(-r % n == r for r in fixed), n
            assert set(range(rows)) | {n - r for r in paired} == set(range(n)), n


@pytest.mark.parametrize("n", [3, 8, 33, 40])
def test_parity_reads_the_sector_a_block_at_a_time(n):
    """x[-i, -j] = -x[i, j] to 1e-12 relative in the Frobenius norm is odd, the odd
    sector, as the zero array is; an even x, x[-i, -j] = x[i, j], is not, and takes the
    full path, as do a perturbation of 1e-10 relative of either and no symmetry."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for parity in (1, -1):
        y = (x + parity * _mirror(x)) / 2
        assert phase_space._odd(y) is (parity < 0)
        noise = np.zeros((n, n), dtype=complex)
        noise[0, 1] = 1e-10 * np.linalg.norm(y)
        assert phase_space._odd(y + noise) is False
    assert phase_space._odd(x) is False
    assert phase_space._odd(np.zeros((n, n), dtype=complex)) is True


@pytest.mark.parametrize("n", [3, 8, 33, 516])
def test_hermitian_keeps_the_dense_frobenius_rule(n):
    """On Z = (1 - i)A held in a buffer, sqrt 2 ||Im Z + (Re Z)^T|| <= 1e-12 ||Z||, the
    rule ||A - A^dag|| <= 1e-12 ||A||, summed a block of rows at a time, decides as the
    dense formula does, on a plain array and on a padded working buffer (N = 516): a
    defect of 1e-14 relative passes, one of 1e-10 fails, and a NaN entry fails."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z = (1 - 1j) * (x + x.conj().T)
    buf = phase_space._working(n)
    for scale in (0.0, 1e-14, 1e-10):
        noise = np.zeros((n, n), dtype=complex)
        noise[0, n - 1] = scale * np.linalg.norm(z)
        np.copyto(buf, z + noise)
        defect = np.sqrt(2) * np.linalg.norm(buf.imag + buf.real.T)
        dense = defect <= 1e-12 * np.linalg.norm(buf)
        assert phase_space._hermitian(buf) == dense == (scale < 1e-12)
    buf[1, 0] = np.nan
    assert not phase_space._hermitian(buf)


@pytest.mark.parametrize("n", [2, 4, 10, 64])
@pytest.mark.parametrize("parity", [1, -1])
def test_half_frame_change_matches_the_full_one(n, parity):
    """For an odd A rows 0 .. N/2 of Z = (1 - i)A alone determine the frame change:
    R = Re Z on them, all the sector's working array holds, takes the real sector
    transform, and Z rebuilt from the new R gives (1 - i) times the full complex pass's
    rows 0 .. N/2.  An even A has no sector (phase_space._odd): its working array
    is the complex N x N one, whose frame change gives the full pass's rows, all N."""
    h = n // 2
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = x + x.conj().T
    x = (x + parity * _mirror(x)) / 2
    odd = phase_space._odd(x)
    assert odd is (parity < 0)
    held = h + 1 if odd else n
    for to in (MOMENTUM, POSITION):
        full = (1 - 1j) * phase_space._change_frame(x.copy(), to)
        z = (1 - 1j) * x
        work = phase_space._working(n, odd)
        assert work.shape == (held, n) and work.dtype == (float if odd else complex)
        np.copyto(work, z.real[:held] if odd else z)
        phase_space._change_frame(work, to)
        rows = (phase_space._z_rows(work, work.T, slice(0, held),
                                    np.empty((held, n), dtype=complex)) if odd else work)
        assert np.abs(rows - full[:held]).max() <= 1e-13 * np.abs(full).max()


def test_coherent_state_centers():
    space = TorusSpace(512)
    q0, p0 = 154 / 512, 301 / 512
    psi = coherent_state(space, q0, p0)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    x = (psi.conj() @ sine_position(space) @ psi).real
    p = (psi.conj() @ sine_momentum(space) @ psi).real
    assert abs(x - np.sin(2 * np.pi * q0)) < 5.0 / 512
    assert abs(p - np.sin(2 * np.pi * p0)) < 5.0 / 512
