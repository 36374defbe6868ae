import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otoclab.classical import _cat_power
from otoclab.coarse_graining import _keeps_parity, build_kernel
from otoclab.maps import (ClassicalMapSpec, apply_map, cat_map, classical_step,
                          harper_map, heisenberg_conjugate, jacobian, kick_prefactor,
                          materialize, quantize, standard_map)
from otoclab.otoc import otoc_series
from otoclab.phase_space import (TorusSpace, coherent_state, sine_momentum, sine_position,
                                 translation)

# index matrix of the exact translation covariance U^dag T_xi U = T_{S xi}
# realized by the k=0 quantization (the cat matrix with q and p roles swapped)
COVARIANCE_S = np.array([[1, 1], [1, 2]])


def test_map_spec_validation():
    with pytest.raises(ValueError):
        standard_map(float("nan"))
    with pytest.raises(ValueError):
        ClassicalMapSpec("bogus", 0.1)
    with pytest.raises(ValueError):
        harper_map(float("inf"))
    assert harper_map(0.5) == ClassicalMapSpec("harper", 0.5)


def test_classical_step_cat_linear():
    q1, p1 = classical_step(cat_map(0.0), (0.1, 0.2))
    assert p1 == pytest.approx(0.3, abs=1e-14)
    assert q1 == pytest.approx(0.4, abs=1e-14)


def test_classical_step_standard_on_axis():
    for p0 in [0.0, 0.3, 0.77]:
        q1, p1 = classical_step(standard_map(5.0), (0.0, p0))
        assert p1 == pytest.approx(p0, abs=1e-14)
        assert q1 == pytest.approx(p0, abs=1e-14)


def test_classical_step_harper_fixed_point():
    q1, p1 = classical_step(harper_map(0.94), (0.0, 0.0))
    assert (q1, p1) == (0.0, 0.0)


def test_classical_step_vectorized_matches_scalar():
    spec = cat_map(0.1)
    q = np.array([0.1, 0.5, 0.9])
    p = np.array([0.2, 0.4, 0.8])
    q1, p1 = classical_step(spec, (q, p))
    for i in range(3):
        qs, ps = classical_step(spec, (q[i], p[i]))
        assert q1[i] == pytest.approx(qs) and p1[i] == pytest.approx(ps)


def test_jacobian_cat_k0_is_monodromy():
    j = jacobian(cat_map(0.0), (0.37, 0.91))
    assert np.allclose(j, [[2, 1], [1, 1]])


def test_jacobian_standard_quarter_point():
    # cos(2 pi / 4) = 0 kills the kick derivative, leaving the pure shear pair
    j = jacobian(standard_map(19.74), (0.25, 0.6))
    assert np.allclose(j, [[1, 1], [0, 1]], atol=1e-12)


@pytest.mark.parametrize("spec", [cat_map(0.0), cat_map(0.02), cat_map(0.3), standard_map(19.74),
                                  harper_map(0.94), harper_map(0.7)])
def test_jacobian_finite_difference_oracle(spec):
    rng = np.random.default_rng(7)
    h = 1e-7
    for _ in range(100):
        q0, p0 = rng.random(2)
        j = jacobian(spec, (q0, p0))
        fd = np.empty((2, 2))
        for col, (dq, dp) in enumerate([(h, 0.0), (0.0, h)]):
            qp, pp = classical_step(spec, (q0 + dq, p0 + dp))
            qm, pm = classical_step(spec, (q0 - dq, p0 - dp))
            dq_out = (qp - qm + 0.5) % 1.0 - 0.5
            dp_out = (pp - pm + 0.5) % 1.0 - 0.5
            fd[0, col] = dq_out / (2 * h)
            fd[1, col] = dp_out / (2 * h)
        assert np.abs(fd - j).max() < 1e-5


@pytest.mark.parametrize("spec", [cat_map(0.25), standard_map(19.74), harper_map(0.7)])
def test_jacobian_symplectic(spec):
    rng = np.random.default_rng(13)
    pts = rng.random((1000, 2))
    for q0, p0 in pts:
        assert abs(abs(np.linalg.det(jacobian(spec, (q0, p0)))) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [4, 16, 128])
@pytest.mark.parametrize("spec", [cat_map(0.0), cat_map(0.02), standard_map(19.74), harper_map(0.94)])
def test_quantize_unitary(n, spec):
    umap = quantize(spec, TorusSpace(n))
    assert np.abs(np.abs(umap.phase_position) - 1.0).max() < 1e-14
    assert np.abs(np.abs(umap.phase_momentum) - 1.0).max() < 1e-14
    u = materialize(umap)
    assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-10


def test_kick_prefactor_values():
    space = TorusSpace(1024)
    assert kick_prefactor(cat_map(0.02), space) == pytest.approx(20.48)
    assert kick_prefactor(cat_map(0.0), space) == 0.0
    assert kick_prefactor(standard_map(0.0), space) == 0.0
    assert kick_prefactor(harper_map(0.0), space) == 0.0
    k_corr = kick_prefactor(standard_map(2.0), space)
    k_printed = kick_prefactor(standard_map(2.0), space, "as_printed")
    assert k_printed / k_corr == pytest.approx((2 * np.pi) ** 2)
    assert kick_prefactor(harper_map(2.0), space) == pytest.approx(2048.0)
    with pytest.raises(ValueError):
        kick_prefactor(cat_map(0.1), space, "mystery")


@pytest.mark.parametrize("spec", [cat_map(0.05), standard_map(19.74), harper_map(0.94)])
def test_materialize_against_independent_dense_construction(spec):
    """The FFT-placed propagator equals F diag(mom) F^dag diag(pos) built from
    an explicit DFT matrix, with no shared code path."""
    n = 24
    space = TorusSpace(n)
    umap = quantize(spec, space)
    q = np.arange(n)
    f = np.exp(2j * np.pi * np.outer(q, q) / n) / np.sqrt(n)
    dense = f @ np.diag(umap.phase_momentum) @ f.conj().T @ np.diag(umap.phase_position)
    assert np.abs(materialize(umap) - dense).max() < 1e-12


@pytest.mark.parametrize("spec", [cat_map(0.05), standard_map(19.74), harper_map(0.94)])
def test_apply_map_against_dense_product(spec):
    space = TorusSpace(16)
    umap = quantize(spec, space)
    u = materialize(umap)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert np.abs(apply_map(umap, a) - u @ a).max() < 1e-11
    assert np.abs(heisenberg_conjugate(umap, a) - u.conj().T @ a @ u).max() < 1e-11


def test_apply_map_rejects_mismatch():
    umap = quantize(cat_map(0.0), TorusSpace(8))
    with pytest.raises(ValueError):
        apply_map(umap, np.zeros(7))


def test_cat_small_n_series_follows_integer_recurrence():
    """At N=8 the exact law C(t) = sin^2(pi a_t / 8) keeps cycling through the
    integer residues a_t mod 8, long past the first few steps."""
    n = 8
    space = TorusSpace(n)
    umap = quantize(cat_map(0.0), space)
    x = sine_position(space).copy()
    p = sine_momentum(space)
    for t in range(13):
        o1 = np.trace(x @ p @ x @ p) / n
        o2 = np.trace(x @ x @ p @ p) / n
        c = -2 * (o1 - o2).real
        a_t = _cat_power(t)[0] % n
        assert abs(c - np.sin(np.pi * a_t / n) ** 2) < 1e-10
        x = heisenberg_conjugate(umap, x)


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("xi", [(1, 0), (0, 1)])
def test_cat_covariance_translations_transform_classically(n, xi):
    space = TorusSpace(n)
    umap = quantize(cat_map(0.0), space)
    t_evolved = heisenberg_conjugate(umap, translation(space, xi))
    target = translation(space, tuple(COVARIANCE_S @ np.array(xi)))
    overlap = np.trace(target.conj().T @ t_evolved) / n
    assert abs(abs(overlap) - 1.0) < 1e-8          # same translation, up to phase
    assert np.abs(t_evolved - overlap * target).max() < 1e-8
    assert abs(overlap - 1.0) < 1e-10              # even N: covariance is exact


def test_cat_covariance_breaks_for_odd_n():
    """Odd dimensions break the quadratic-phase periodicity at the wrap, so the
    exact covariance holds only for even N; documented, not patched."""
    n = 9
    space = TorusSpace(n)
    umap = quantize(cat_map(0.0), space)
    t_evolved = heisenberg_conjugate(umap, translation(space, (1, 0)))
    target = translation(space, tuple(COVARIANCE_S @ np.array([1, 0])))
    overlap = np.trace(target.conj().T @ t_evolved) / n
    assert np.abs(t_evolved - overlap * target).max() > 0.1


@pytest.mark.parametrize("spec", [cat_map(0.02), standard_map(0.3), harper_map(0.1)])
def test_wavepacket_follows_classical_step(spec):
    """Propagated coherent states track the classical map.

    Moderate kick strengths keep the one-step wavepacket spreading below the
    tolerance; the 2 pi calibration factors this test guards would show up as
    errors two orders of magnitude larger.
    """
    n = 1024
    space = TorusSpace(n)
    umap = quantize(spec, space)
    x_op = sine_position(space)
    p_op = sine_momentum(space)
    rng = np.random.default_rng(21)
    for _ in range(3):
        q0 = round(rng.uniform(0.05, 0.95) * n) / n
        p0 = round(rng.uniform(0.05, 0.95) * n) / n
        psi = apply_map(umap, coherent_state(space, q0, p0))
        qc, pc = classical_step(spec, (q0, p0))
        assert abs((psi.conj() @ x_op @ psi).real - np.sin(2 * np.pi * qc)) < 10.0 / n
        assert abs((psi.conj() @ p_op @ psi).real - np.sin(2 * np.pi * pc)) < 10.0 / n


def test_array_records_compare_by_identity_and_hash():
    # records that hold arrays get identity semantics; the map spec and the
    # space keep value equality, because the spec is a cache key
    space = TorusSpace(8)
    pairs = [(build_kernel(space, 0.1), build_kernel(space, 0.1)),
             (quantize(cat_map(0.02), space), quantize(cat_map(0.02), space))]
    for first, second in pairs:
        assert first == first
        assert first != second
        assert len({first, second, first}) == 2
    assert cat_map(0.02) == cat_map(0.02) and hash(cat_map(0.02)) == hash(cat_map(0.02))
    assert TorusSpace(8) == space and hash(TorusSpace(8)) == hash(space)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((cat_map, standard_map, harper_map)), st.integers(1, 1024),
       st.floats(0.0, 0.5), st.sampled_from(("correspondence", "as_printed")))
def test_every_even_n_keeps_parity_exactly(family, half, k, kick_mode):
    """At even N both phase vectors are mirror-symmetric to the bit, so the channel keeps
    parity in the form the sector step uses, at any kick strength."""
    umap = quantize(family(k), TorusSpace(2 * half), kick_mode)
    assert _keeps_parity(umap)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((cat_map, standard_map, harper_map)), st.integers(1, 1024),
       st.floats(0.0, 0.5), st.sampled_from(("correspondence", "as_printed")))
def test_at_odd_n_only_harper_keeps_parity(family, half, k, kick_mode):
    """With the even-N test above, the one sector rule at every N: Harper's phases hold
    only the cosine kick, so they are mirror-symmetric at odd N too; the quadratic phase
    of the cat and standard maps is shifted by pi at every q but 0 there."""
    umap = quantize(family(k), TorusSpace(2 * half + 1), kick_mode)
    assert _keeps_parity(umap) == (family is harper_map)


def test_asymmetric_phases_take_the_full_path():
    """One phase moved by one ulp breaks the mirror symmetry: the sector is refused."""
    umap = quantize(cat_map(0.3), TorusSpace(64))
    assert otoc_series(umap, (0, 1), (1, 0), 1).sector == "odd"
    phases = umap.phase_position.copy()
    phases[5] = np.nextafter(phases[5].real, 2.0) + 1j * phases[5].imag
    skewed = dataclasses.replace(umap, phase_position=phases)
    assert not _keeps_parity(skewed)
    assert otoc_series(skewed, (0, 1), (1, 0), 1).sector == "none"


def test_strong_kicks_at_large_n_run_in_the_sector():
    """Criterion 4's inset (cat k = 0.25 and 0.325 at N = 1024) takes the odd sector; its
    cosine taken at q and N - q separately left the phases 1.1e-12 and 1.5e-12 apart."""
    space = TorusSpace(1024)
    for k in (0.25, 0.325):
        assert otoc_series(quantize(cat_map(k), space), (0, 1), (1, 0), 1).sector == "odd"
