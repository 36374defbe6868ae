import numpy as np
import pytest

from otoclab.coarse_graining import (apply_dephasing_chord, apply_dephasing_dense,
                                     build_kernel, channel_step, evolve)
from otoclab.maps import cat_map, heisenberg_conjugate, quantize, standard_map
from otoclab.phase_space import (TorusSpace, sine_position, translation)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (raw + raw.conj().T) / 2


def test_kernel_rejects_negative_epsilon():
    with pytest.raises(ValueError, match="epsilon must be non-negative, got -0.1"):
        build_kernel(TorusSpace(8), -0.1)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
def test_kernel_rejects_non_finite_epsilon(eps):
    """NaN compares False with everything, so a sign check alone let it build an all-NaN kernel."""
    with pytest.raises(ValueError, match="epsilon must be finite"):
        build_kernel(TorusSpace(8), eps)


def _kernel_2d(n, eps):
    """Weights and chord eigenvalues by the 2D transforms of the full c~."""
    idx = np.arange(n)
    axis = np.exp(-(eps * n / (2.0 * np.pi)) * np.sin(np.pi * idx / n) ** 2)
    weights = np.fft.ifft2(np.outer(axis, axis)).real
    weights = np.clip(weights, 0.0, None)
    weights /= weights.sum()
    # g[a, b] = sum_xi w[xi_q, xi_p] e^{2i pi (a xi_q - b xi_p)/n}; the chord
    # eigenvalue at chi = (chi_q, chi_p) is g[chi_p, chi_q].
    g = np.fft.fft(np.fft.ifft(weights, axis=0) * n, axis=1)
    return weights, g.real.T


@pytest.mark.parametrize("n", [64, 1000, 1024])
@pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
def test_kernel_factors_match_2d_construction(n, eps):
    kernel = build_kernel(TorusSpace(n), eps)
    weights, diag_chord = _kernel_2d(n, eps)
    assert np.abs(kernel.diag_chord - diag_chord).max() < 1e-13
    assert np.abs(kernel.c_weights - weights).max() < 1e-14


def test_kernel_rejects_negative_leakage(monkeypatch):
    """Weights that dip below zero by more than round-off are an error, not clipped."""
    ifft = np.fft.ifft

    def leaky(a):
        w = ifft(a)
        w[a.size // 2] -= 1e-6
        return w

    monkeypatch.setattr(np.fft, "ifft", leaky)
    with pytest.raises(ValueError, match="negative"):
        build_kernel(TorusSpace(16), 0.3)


def test_zero_epsilon_kernel_is_identity_channel():
    space = TorusSpace(16)
    kernel = build_kernel(space, 0.0)
    w = kernel.c_weights.copy()
    assert abs(w[0, 0] - 1.0) < 1e-12
    w[0, 0] = 0.0
    assert np.abs(w).max() < 1e-12
    assert np.abs(kernel.diag_chord - 1.0).max() < 1e-12
    a = random_hermitian(16, 0)
    assert np.abs(apply_dephasing_chord(kernel, a) - a).max() < 1e-12


@pytest.mark.parametrize("eps", [0.01, 0.3, 2.0])
def test_kernel_invariants(eps):
    space = TorusSpace(64)
    kernel = build_kernel(space, eps)
    assert kernel.c_weights.min() > -1e-12
    assert abs(kernel.c_weights.sum() - 1.0) < 1e-12
    assert kernel.clip_magnitude < 1e-10
    assert kernel.diag_chord.min() > -1e-12
    assert kernel.diag_chord.max() < 1.0 + 1e-12
    assert abs(kernel.diag_chord[0, 0] - 1.0) < 1e-12


def test_weight_second_moment_scales_linearly_with_epsilon():
    """Exact Fourier identity: the per-axis second moment of the weights is
    eps N / 4 pi.  (The weights therefore narrow as eps decreases; their
    Fourier profile c~ is what broadens.)"""
    n = 1024
    space = TorusSpace(n)
    centered = ((np.arange(n) + n // 2) % n) - n // 2
    for eps in [0.005, 0.01, 0.02]:
        w = build_kernel(space, eps).c_weights
        m_q = float((w.sum(axis=1) * centered.astype(float) ** 2).sum())
        m_p = float((w.sum(axis=0) * centered.astype(float) ** 2).sum())
        expected = eps * n / (4 * np.pi)
        assert m_q == pytest.approx(expected, rel=0.02)
        assert m_p == pytest.approx(expected, rel=0.02)


def test_diag_chord_two_independent_constructions():
    """FFT-built eigenvalues vs the direct weighted sum and the closed-form
    reindexing of c~ by the symplectic pairing, c~ built here from its closed form."""
    n = 8
    eps = 0.3
    space = TorusSpace(n)
    kernel = build_kernel(space, eps)
    idx = np.arange(n)
    direct = np.empty((n, n))
    for cq in range(n):
        for cp in range(n):
            phases = np.exp(2j * np.pi * (cp * idx[:, None] - cq * idx[None, :]) / n)
            direct[cq, cp] = (kernel.c_weights * phases).sum().real
    assert np.abs(kernel.diag_chord - direct).max() < 1e-12
    axis = np.exp(-(eps * n / (2 * np.pi)) * np.sin(np.pi * idx / n) ** 2)
    c_tilde = np.outer(axis, axis)
    lookup = np.empty((n, n))
    for cq in range(n):
        for cp in range(n):
            lookup[cq, cp] = c_tilde[cp, (-cq) % n]
    assert np.abs(kernel.diag_chord - lookup).max() < 1e-12


def test_dephasing_dense_unital_and_epsilon_zero():
    space = TorusSpace(8)
    kernel = build_kernel(space, 0.4)
    ident = np.eye(8, dtype=complex)
    assert np.abs(apply_dephasing_dense(kernel, ident) - ident).max() < 1e-12
    kernel0 = build_kernel(space, 0.0)
    a = random_hermitian(8, 1)
    assert np.abs(apply_dephasing_dense(kernel0, a) - a).max() < 1e-12


def test_dephasing_dense_refuses_large_n():
    space = TorusSpace(128)
    kernel = build_kernel(space, 0.1)
    with pytest.raises(ValueError):
        apply_dephasing_dense(kernel, np.eye(128, dtype=complex))


@pytest.mark.parametrize("n", [8, 16, 32])
def test_dense_and_chord_paths_agree(n):
    space = TorusSpace(n)
    kernel = build_kernel(space, 3.0 / n)
    a = random_hermitian(n, n)
    dense = apply_dephasing_dense(kernel, a)
    chord = apply_dephasing_chord(kernel, a)
    assert np.abs(dense - chord).max() < 1e-10


def test_translations_are_dephasing_eigenoperators():
    n = 16
    space = TorusSpace(n)
    kernel = build_kernel(space, 0.25)
    rng = np.random.default_rng(2)
    for _ in range(6):
        chi = tuple(rng.integers(0, n, 2))
        t = translation(space, chi)
        out = apply_dephasing_chord(kernel, t)
        assert np.abs(out - kernel.diag_chord[chi] * t).max() < 1e-12


def test_dephasing_preserves_trace_and_hermiticity():
    n = 32
    space = TorusSpace(n)
    kernel = build_kernel(space, 0.2)
    for seed in range(20):
        a = random_hermitian(n, seed)
        out = apply_dephasing_chord(kernel, a)
        assert abs(np.trace(out) - np.trace(a)) < 1e-12 * n
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_channel_step_epsilon_zero_is_heisenberg():
    space = TorusSpace(32)
    umap = quantize(cat_map(0.1), space)
    a = random_hermitian(32, 5)
    for kernel in (None, build_kernel(space, 0.0)):
        out = channel_step(umap, kernel, a)
        assert np.abs(out - heisenberg_conjugate(umap, a)).max() < 1e-12


@pytest.mark.parametrize("spec,eps,n", [
    (cat_map(0.02), 0.3, 16), (standard_map(19.74), 0.5, 32), (cat_map(0.0), 1.0, 8),
])
def test_channel_unital(spec, eps, n):
    space = TorusSpace(n)
    umap = quantize(spec, space)
    kernel = build_kernel(space, eps)
    ident = np.eye(n, dtype=complex)
    assert np.abs(channel_step(umap, kernel, ident) - ident).max() < 1e-12


def test_channel_contracts_traceless_operators():
    n = 32
    space = TorusSpace(n)
    umap = quantize(cat_map(0.02), space)
    kernel = build_kernel(space, 0.25)
    rng = np.random.default_rng(11)
    for seed in range(5):
        a = random_hermitian(n, 100 + seed)
        a -= np.trace(a) / n * np.eye(n)
        before = np.linalg.norm(a)
        after = np.linalg.norm(channel_step(umap, kernel, a))
        assert after <= before * (1 + 1e-10)
        assert after < before * 0.999  # strict decrease for eps > 0
    hermitian = random_hermitian(n, 200)
    unitary_only = np.linalg.norm(channel_step(umap, None, hermitian))
    assert unitary_only <= np.linalg.norm(hermitian) * (1 + 1e-10)


def test_channel_o1_and_o2_both_decay():
    """Coarse graining makes the second correlator decay too, instead of
    staying pinned at 1/4 as in the unitary run."""
    from otoclab.otoc import otoc_series
    from otoclab.phase_space import sine_momentum

    n = 256
    space = TorusSpace(n)
    umap = quantize(cat_map(0.02), space)
    kernel = build_kernel(space, 0.04)
    series = otoc_series(umap, sine_position(space), sine_momentum(space), 18, kernel=kernel)
    assert series.o2[18] < 0.1
    assert series.o1_abs[18] < 0.02 * series.o1_abs[0]
    unitary = otoc_series(umap, sine_position(space), sine_momentum(space), 18)
    assert abs(unitary.o2[18] - 0.25) < 0.01


def test_channel_step_dimension_mismatch():
    umap = quantize(cat_map(0.0), TorusSpace(8))
    kernel = build_kernel(TorusSpace(8), 0.1)
    with pytest.raises(ValueError):
        channel_step(umap, kernel, np.eye(9, dtype=complex))



def test_evolve_refuses_negative_steps():
    space = TorusSpace(8)
    umap = quantize(cat_map(0.0), space)
    with pytest.raises(ValueError, match="steps must be non-negative, got -1"):
        next(evolve(umap, None, sine_position(space), -1))
