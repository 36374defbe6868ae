import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from otoclab import resonances
from otoclab.coarse_graining import build_kernel, channel_step
from otoclab.maps import AS_PRINTED, CORRESPONDENCE, cat_map, harper_map, quantize, standard_map
from otoclab.otoc import OtocSeries
from otoclab.phase_space import OperatorMatrix, TorusSpace, sine_momentum, sine_position
from otoclab.resonances import (dense_superoperator, fit_tail_rate, full_spectrum,
                                krylov_leading, random_traceless_hermitian,
                                spectral_o1_prediction)


def _dense(n, spec, eps):
    space = TorusSpace(n)
    umap = quantize(spec, space)
    kernel = build_kernel(space, eps) if eps > 0 else None
    return umap, kernel, full_spectrum(dense_superoperator(umap, kernel),
                                       params={"n": n, "epsilon": eps})


def test_unitary_channel_spectrum_on_unit_circle():
    _, _, spectrum = _dense(4, cat_map(0.0), 0.0)
    assert np.abs(np.abs(spectrum.alphas) - 1.0).max() < 1e-10


def test_identity_eigenvector_present():
    _, _, spectrum = _dense(12, cat_map(0.02), 0.7)
    assert abs(spectrum.alphas[0] - 1.0) < 1e-10
    r0 = spectrum.rights[0]
    ident = np.eye(12) / np.sqrt(12)
    assert abs(abs(np.vdot(ident, r0)) - 1.0) < 1e-8


def test_spectrum_strictly_inside_unit_disk_for_dephased_chaos():
    _, _, spectrum = _dense(12, cat_map(0.02), 0.7)
    assert np.abs(spectrum.nontrivial).max() < 1.0
    assert np.abs(spectrum.alphas).max() <= 1.0 + 1e-9


@pytest.mark.parametrize("n,spec,eps", [
    (8, cat_map(0.0), 1.2), (12, standard_map(19.74), 0.8), (16, cat_map(0.02), 0.625),
])
def test_spectrum_confinement(n, spec, eps):
    _, _, spectrum = _dense(n, spec, eps)
    assert np.abs(spectrum.alphas).max() <= 1.0 + 1e-9


def test_spectral_resynthesis():
    n = 12
    space = TorusSpace(n)
    umap = quantize(cat_map(0.02), space)
    kernel = build_kernel(space, 10.0 / n)
    s = dense_superoperator(umap, kernel)
    spectrum = full_spectrum(s, params={})
    rebuilt = np.zeros_like(s)
    for alpha, right, left in zip(spectrum.alphas, spectrum.rights, spectrum.lefts):
        rebuilt += alpha * np.outer(right.reshape(-1), left.reshape(-1).conj())
    assert np.abs(rebuilt - s).max() < 1e-8


def test_biorthogonality_after_rescaling():
    _, _, spectrum = _dense(8, cat_map(0.02), 0.9)
    lefts = spectrum.lefts.reshape(64, -1)
    rights = spectrum.rights.reshape(64, -1)
    gram = lefts.conj() @ rights.T
    assert np.abs(gram - np.eye(64)).max() < 1e-8


def test_dense_superoperator_refuses_large_n():
    space = TorusSpace(32)
    umap = quantize(cat_map(0.0), space)
    with pytest.raises(ValueError):
        dense_superoperator(umap, build_kernel(space, 0.1))


def test_dense_leading_stabilizes_with_n():
    """epsilon N fixed at 10: the leading nontrivial modulus settles as N grows.
    N=16 is still pre-asymptotic (recorded, not asserted); 20 -> 24 drift < 5%."""
    leads = {}
    for n in [16, 20, 24]:
        _, _, spectrum = _dense(n, cat_map(0.02), 10.0 / n)
        leads[n] = abs(spectrum.nontrivial[0])
    print(f"leading modulus vs N: {leads}")
    assert abs(leads[24] - leads[20]) / leads[20] < 0.05


@pytest.mark.parametrize("n", [12, 16, 20])
def test_krylov_matches_dense_top_moduli(n):
    """Random traceless seed so every symmetry sector is reachable; the default
    sine seed only explores the parity-odd sector of the cat channel."""
    umap, kernel, spectrum = _dense(n, cat_map(0.02), 10.0 / n)
    dense_top = np.abs(spectrum.nontrivial)[:3]
    seed = random_traceless_hermitian(umap.space, seed=11)
    krylov = krylov_leading(umap, kernel, seed, depth=40, n_wanted=3)
    assert np.abs(dense_top - np.abs(krylov.alphas)[:3]).max() < 1e-3
    assert krylov.residuals.max() < 1e-3


def test_krylov_deep_agreement_at_n16():
    umap, kernel, spectrum = _dense(16, cat_map(0.02), 0.625)
    seed = random_traceless_hermitian(umap.space, seed=11)
    krylov = krylov_leading(umap, kernel, seed, depth=60, n_wanted=3)
    assert np.abs(np.abs(spectrum.nontrivial)[:3] - np.abs(krylov.alphas)[:3]).max() < 1e-4
    assert krylov.residuals.max() < 1e-6
    assert krylov.converged.all()


def test_krylov_sine_seed_stays_in_parity_sector():
    """Documented seed dependence: the sine observable is parity odd, so its
    Krylov space omits even-sector resonances that the dense oracle sees."""
    umap, kernel, spectrum = _dense(12, cat_map(0.02), 10.0 / 12)
    krylov = krylov_leading(umap, kernel, sine_position(umap.space), depth=40, n_wanted=3)
    dense_top = abs(spectrum.nontrivial[0])
    assert abs(krylov.alpha1) < dense_top - 1e-3
    dense_mods = np.abs(spectrum.nontrivial)
    assert np.min(np.abs(dense_mods - abs(krylov.alpha1))) < 1e-6


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(3, 7), st.sampled_from((cat_map, standard_map, harper_map)),
       st.floats(-2.0, 2.0), st.sampled_from((CORRESPONDENCE, AS_PRINTED)),
       st.just(0.0) | st.floats(0.1, 2.0), st.integers(0, 2**32 - 1))
@example(7, harper_map, 0.671875, AS_PRINTED, 0.125, 2)  # identity leak, see krylov_leading
def test_krylov_full_depth_matches_dense_oracle(n, family, param, kick_mode, eps, seed):
    """At depth N^2 - 1 the Krylov space of a cyclic seed is the whole
    traceless sector, so the Ritz values are the channel's nontrivial
    eigenvalues.  A repeated eigenvalue (Harper channels have exact doublets)
    makes every seed non-cyclic: the space closes early and holds one copy.
    Such spectra are skipped unless the channel is unitary, where every
    modulus is 1 whatever the multiplicity."""
    space = TorusSpace(n)
    umap = quantize(family(param), space, kick_mode)
    kernel = build_kernel(space, eps) if eps > 0 else None
    nontrivial = full_spectrum(dense_superoperator(umap, kernel)).nontrivial
    gaps = np.abs(nontrivial[:, None] - nontrivial[None, :]) + np.eye(nontrivial.size)
    assume(kernel is None or gaps.min() > 1e-6)
    krylov = krylov_leading(umap, kernel, random_traceless_hermitian(space, seed),
                            depth=n * n - 1, n_wanted=3)
    assert np.abs(np.abs(nontrivial[:3]) - np.abs(krylov.alphas)).max() < 1e-10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(3, 7), st.sampled_from((cat_map, standard_map, harper_map)),
       st.floats(-2.0, 2.0), st.sampled_from((CORRESPONDENCE, AS_PRINTED)),
       st.floats(0.1, 2.0), st.sampled_from((1, -1)), st.integers(0, 2**32 - 1))
@example(4, cat_map, 0.02, CORRESPONDENCE, 0.7, 1, 0)
@example(6, cat_map, 0.3, CORRESPONDENCE, 1.3, -1, 1)
@example(6, standard_map, 1.5, AS_PRINTED, 0.9, 1, 2)
def test_krylov_parity_sector_matches_dense_oracle(n, family, param, kick_mode, eps, sign, seed):
    """A channel that commutes with parity A[i, j] -> A[-i, -j] keeps the
    Krylov space of a seed of definite parity in that sector.  At depth equal
    to the sector's traceless dimension the Ritz values are the eigenvalues
    whose right eigenoperators share the seed's parity, the identity
    excluded.  The cat and standard maps break parity at odd N (their
    quadratic kick phases flip sign under q -> -q for q != 0); there the
    basis keeps every entry."""
    space = TorusSpace(n)
    umap = quantize(family(param), space, kick_mode)
    kernel = build_kernel(space, eps)
    superop = dense_superoperator(umap, kernel)
    dense = full_spectrum(superop)
    nontrivial = dense.nontrivial
    gaps = np.abs(nontrivial[:, None] - nontrivial[None, :]) + np.eye(nontrivial.size)
    assume(gaps.min() > 1e-6)
    neg = -np.arange(n) % n
    mirror = (neg[:, None] * n + neg[None, :]).reshape(-1)
    commutes = np.abs(superop[np.ix_(mirror, mirror)] - superop).max() < 1e-12
    fixed = 1 if n % 2 else 4  # entries with (i, j) = (-i, -j) mod n
    dim = (n * n - fixed) // 2 if sign < 0 else (n * n + fixed) // 2 - 1
    a = random_traceless_hermitian(space, seed).entries
    a = (a + sign * a[np.ix_(neg, neg)]) / 2
    krylov = krylov_leading(umap, kernel, OperatorMatrix(a), depth=dim, n_wanted=min(3, dim - 2))
    if not commutes:
        assert family is not harper_map and n % 2
        assert krylov.params["sector"] == "none"
        return
    assert krylov.params["sector"] == ("even" if sign > 0 else "odd")
    assert krylov.params["krylov_dim"] == dim
    in_sector = np.array([np.linalg.norm(r - sign * r[np.ix_(neg, neg)]) < 1e-6
                          for r in dense.rights])
    in_sector[np.argmin(np.abs(dense.alphas - 1.0))] = False
    expected = np.abs(dense.alphas[in_sector])
    assert expected.size == dim
    assert np.abs(expected[:krylov.alphas.size] - np.abs(krylov.alphas)).max() < 1e-10


def test_krylov_refuses_non_hermitian_seed():
    space = TorusSpace(8)
    umap = quantize(cat_map(0.02), space)
    seed = OperatorMatrix((1 + 0.5j) * random_traceless_hermitian(space, 0).entries)
    with pytest.raises(ValueError, match="Hermitian"):
        krylov_leading(umap, build_kernel(space, 0.5), seed, depth=10, n_wanted=3)


def test_krylov_sector_is_checked_on_the_channel_image():
    """The sine seed is parity odd.  At even N the cat channel keeps the odd
    sector and the basis halves; at odd N it does not, and the basis keeps
    every entry with the same result as a full-depth run shows.  A channel
    image that is not Hermitian cannot be stored in real numbers and is
    refused."""
    space = TorusSpace(8)
    umap = quantize(cat_map(0.02), space)
    assert krylov_leading(umap, build_kernel(space, 0.5), sine_position(space),
                          depth=10, n_wanted=3).params["sector"] == "odd"
    umap, kernel, spectrum = _dense(7, cat_map(0.02), 0.5)
    krylov = krylov_leading(umap, kernel, sine_position(umap.space), depth=48, n_wanted=3)
    assert krylov.params["sector"] == "none"
    assert np.abs(np.abs(spectrum.nontrivial[:3]) - np.abs(krylov.alphas)).max() < 1e-10
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resonances, "channel_step", lambda umap, kernel, a: 1j * a)
        with pytest.raises(ValueError, match="not Hermitian"):
            krylov_leading(umap, kernel, sine_position(umap.space), depth=10, n_wanted=3)


def test_krylov_warns_when_space_closes_early():
    """This Harper channel has an exact doublet at 0.51622655.  The seed
    reaches one eigenoperator of it, the space closes at 12 < 15, and the
    doublet would otherwise be dropped from the list without notice."""
    space = TorusSpace(4)
    umap = quantize(harper_map(0.06427434219151484), space, CORRESPONDENCE)
    kernel = build_kernel(space, 1.5756979172503662)
    seed = random_traceless_hermitian(space, 497639016)
    with pytest.warns(UserWarning, match="repeated eigenvalue is listed once"):
        spectrum = krylov_leading(umap, kernel, seed, depth=15, n_wanted=3)
    assert spectrum.params["krylov_dim"] == 12
    # a simple spectrum: the same seed spans the whole traceless space
    umap = quantize(cat_map(0.02), space)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spectrum = krylov_leading(umap, build_kernel(space, 0.7), seed, depth=15, n_wanted=3)
    assert spectrum.params["krylov_dim"] == 15
    assert not [w for w in caught if "closed" in str(w.message)]


def test_krylov_validation_and_determinism():
    space = TorusSpace(16)
    umap = quantize(cat_map(0.02), space)
    kernel = build_kernel(space, 0.5)
    with pytest.raises(ValueError):
        krylov_leading(umap, kernel, sine_position(space), depth=4, n_wanted=4)
    from otoclab.phase_space import OperatorMatrix
    with pytest.raises(ValueError):
        krylov_leading(umap, kernel, OperatorMatrix(np.eye(16, dtype=complex)), depth=20)
    a = krylov_leading(umap, kernel, random_traceless_hermitian(space, 3), depth=25, n_wanted=3)
    b = krylov_leading(umap, kernel, random_traceless_hermitian(space, 3), depth=25, n_wanted=3)
    assert np.array_equal(a.alphas, b.alphas)


def test_krylov_flags_unconverged():
    space = TorusSpace(20)
    umap = quantize(cat_map(0.02), space)
    kernel = build_kernel(space, 0.5)
    with pytest.warns(UserWarning, match="residual"):
        spectrum = krylov_leading(umap, kernel, random_traceless_hermitian(space, 1),
                                  depth=8, n_wanted=6)
    assert not spectrum.converged.all()


def _synthetic_series(alpha, t_max=24, floor=0.0):
    t = np.arange(t_max + 1)
    o1 = 0.3 * alpha ** (2 * t) + floor
    return OtocSeries(t, np.zeros(t_max + 1), o1.astype(complex), np.full(t_max + 1, 0.25),
                      cat_map(0.02), 128, 0.01)


def test_fit_tail_rate_synthetic_exact():
    fit = fit_tail_rate(_synthetic_series(0.5), 8, 20)
    assert fit.alpha1 == pytest.approx(0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.window == (8, 20)


def test_fit_tail_rate_validation():
    series = _synthetic_series(0.5)
    with pytest.raises(ValueError):
        fit_tail_rate(series, 8, 10)  # too short
    with pytest.raises(ValueError):
        fit_tail_rate(series, 3, 12, t_ehrenfest=6.4)  # starts before ceil(t_E)
    with pytest.warns(UserWarning, match="floor"):
        fit_tail_rate(_synthetic_series(0.2, floor=1e-15), 14, 22)


def test_spectral_prediction_complete_at_t0():
    n = 16
    umap, kernel, spectrum = _dense(n, cat_map(0.02), 0.625)
    x, p = sine_position(umap.space), sine_momentum(umap.space)
    direct0 = np.einsum("ij,jk,kl,li->", x.entries, p.entries, x.entries, p.entries) / n
    pred0 = spectral_o1_prediction(spectrum, x, p, 0)
    assert abs(pred0 - direct0) < 1e-8


def test_spectral_prediction_identity_coefficient_vanishes():
    umap, kernel, spectrum = _dense(12, cat_map(0.02), 0.8)
    x0 = np.vdot(spectrum.lefts[0], sine_position(umap.space).entries)
    assert abs(x0) < 1e-10


def test_spectral_prediction_tracks_direct_iteration():
    n = 16
    umap, kernel, spectrum = _dense(n, cat_map(0.02), 0.625)
    x, p = sine_position(umap.space), sine_momentum(umap.space)
    at = x.entries.copy()
    for t in range(1, 9):
        at = channel_step(umap, kernel, at)
        direct = np.einsum("ij,jk,kl,li->", at, p.entries, at, p.entries) / n
        pred = spectral_o1_prediction(spectrum, x, p, t)
        assert abs(pred - direct) < 1e-10 * max(1.0, abs(direct))


def test_spectral_prediction_single_resonance_regime():
    """Once subleading contributions die off, the rank-one term
    x1^2 alpha1^{2t} Tr(R1 P R1 P)/N alone predicts the correlator.

    The observable is parity odd, so 'leading' means the largest-modulus
    eigenvalue carrying weight in its expansion; cross terms decay as
    (alpha2/alpha1)^t but can start with large prefactors, so the regime
    onset is located adaptively.  The direct channel iteration is
    renormalized each step to stay above the float floor.
    """
    n = 16
    umap, kernel, spectrum = _dense(n, cat_map(0.02), 0.625)
    x, p = sine_position(umap.space), sine_momentum(umap.space)
    coeffs = np.array([np.vdot(spectrum.lefts[i], x.entries)
                       for i in range(spectrum.alphas.size)])
    contributing = np.where(np.abs(coeffs) > 1e-10)[0]
    order = contributing[np.argsort(-np.abs(spectrum.alphas[contributing]))]
    lead, sub = order[0], order[1]
    a1, a2 = spectrum.alphas[lead], spectrum.alphas[sub]
    assert abs(a1.imag) < 1e-10  # real leading resonance: clean decay, no envelope
    t11 = np.einsum("ij,jk,kl,li->", spectrum.rights[lead], p.entries,
                    spectrum.rights[lead], p.entries)
    assert abs(t11) > 1e-12

    def single(t):
        return coeffs[lead] ** 2 * a1 ** (2 * t) * t11 / n

    threshold_t = int(np.ceil(np.log(0.05) / np.log(abs(a2) / abs(a1))))
    t_star = None
    for t in range(threshold_t, threshold_t + 100):
        full = spectral_o1_prediction(spectrum, x, p, t)
        if abs(full - single(t)) / abs(single(t)) < 0.08:
            t_star = t
            break
    assert t_star is not None
    assert (abs(a2) / abs(a1)) ** t_star < 0.05
    at = x.entries.copy()
    log_scale = 0.0
    for _ in range(t_star):
        at = channel_step(umap, kernel, at)
        norm = np.linalg.norm(at)
        log_scale += np.log(norm)
        at /= norm
    direct = np.einsum("ij,jk,kl,li->", at, p.entries, at, p.entries) / n * np.exp(2 * log_scale)
    assert abs(single(t_star) - direct) / abs(direct) < 0.10


def test_complex_leading_resonance_fit_targets_envelope():
    """A complex leading pair superposes oscillation on the decay; fitting
    through the oscillation nodes is meaningless, the local maxima recover
    the modulus."""
    alpha = 0.6 * np.exp(0.4j)
    t = np.arange(41)
    o1 = 0.2 * (alpha ** (2 * t) + np.conj(alpha) ** (2 * t))
    series = OtocSeries(t, np.zeros(t.size), o1, np.full(t.size, 0.25),
                        cat_map(0.02), 256, 0.01)
    env = [i for i in range(1, 40)
           if series.o1_abs[i] >= series.o1_abs[i - 1] and series.o1_abs[i] >= series.o1_abs[i + 1]]
    from otoclab.otoc import loglinear_fit
    slope, _, r2 = loglinear_fit(np.array(env, float), series.o1_abs[env])
    assert np.exp(slope / 2) == pytest.approx(0.6, rel=0.02)
    assert r2 > 0.99
    # the oscillation degrades any pointwise window relative to the envelope
    node_fit = fit_tail_rate(series, 8, 16)
    assert node_fit.r2 < r2


def test_leading_cluster_reporting():
    _, _, spectrum = _dense(12, cat_map(0.02), 10.0 / 12)
    cluster = spectrum.leading_cluster(rtol=0.5)
    assert cluster.size >= 2
    assert abs(cluster[0]) == np.abs(spectrum.nontrivial).max()
