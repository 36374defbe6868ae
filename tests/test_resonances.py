import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from otoclab import resonances
from otoclab.coarse_graining import build_kernel, channel_step
from otoclab.maps import AS_PRINTED, CORRESPONDENCE, cat_map, harper_map, quantize, standard_map
from otoclab.otoc import OtocSeries
from otoclab.phase_space import TorusSpace, sine_momentum, sine_position
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


def test_full_spectrum_lists_conjugate_pairs_positive_imaginary_first():
    """The two members of a conjugate pair have moduli equal up to round-off,
    so the modulus sort alone leaves their order to the last bits, which a
    1e-15 change in the kernel can flip.  The member with positive imaginary
    part comes first, as in krylov_leading."""
    _, _, spectrum = _dense(12, cat_map(0.02), 0.2)
    w = spectrum.alphas
    conjugate = (np.abs(w[:-1] - w[1:].conj()) <= 1e-10 * np.abs(w[:-1])) & (np.abs(w[:-1].imag) > 1e-8)
    assert conjugate.sum() >= 60  # 66 complex pairs among 144 eigenvalues
    assert (w[:-1][conjugate].imag > 0).all()
    assert np.all(np.diff(np.abs(w)) <= 1e-12)


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
    a = random_traceless_hermitian(space, seed)
    a = (a + sign * a[np.ix_(neg, neg)]) / 2
    krylov = krylov_leading(umap, kernel, a, depth=dim, n_wanted=min(3, dim - 2))
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
    seed = (1 + 0.5j) * random_traceless_hermitian(space, 0)
    with pytest.raises(ValueError, match="Hermitian"):
        krylov_leading(umap, build_kernel(space, 0.5), seed, depth=10, n_wanted=3)


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
def test_krylov_refuses_a_non_finite_or_zero_seed(value):
    """A NaN or inf entry, or an all-zero seed, used to reach the division by the
    seed's norm (a RuntimeWarning) and fail in the first eig; it is refused first."""
    space = TorusSpace(8)
    umap = quantize(cat_map(0.02), space)
    seed = np.zeros((8, 8), dtype=complex) if value == 0 else sine_position(space)
    seed[1, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Krylov seed must be finite and nonzero"):
            krylov_leading(umap, build_kernel(space, 0.5), seed, depth=10, n_wanted=3)


class _IndexTableSector:
    """The parity-sector coordinates as index tables over the flattened R, as they
    were stored before the slice layout: the reference it must match bit for bit."""

    def __init__(self, n, sign):
        flat = np.arange(n * n)
        mirror = ((-(flat // n)) % n) * n + (-flat) % n
        self.n, self.sign = n, sign
        self.pairs = flat[flat < mirror]
        self.mirrors = mirror[self.pairs]
        self.fixed = flat[flat == mirror]

    def pack(self, a):
        r = (a.real + a.imag).reshape(-1)
        out = np.take(r, self.pairs)
        out *= np.sqrt(2.0)
        return np.concatenate((out, np.take(r, self.fixed))) if self.sign > 0 else out

    def unpack(self, x):
        half = x[:self.pairs.size] / np.sqrt(2.0)
        flat = np.empty(self.n * self.n)
        flat[self.pairs] = half
        flat[self.mirrors] = half if self.sign > 0 else np.negative(half)
        flat[self.fixed] = x[self.pairs.size:] if self.sign > 0 else 0.0
        r = flat.reshape(self.n, self.n)
        out = np.empty((self.n, self.n), dtype=complex)
        np.add(r, r.T, out=out.real)
        np.subtract(r, r.T, out=out.imag)
        out *= 0.5
        return out


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 320])
@pytest.mark.parametrize("sign", [1, -1])
def test_sector_slices_match_the_index_tables(n, sign):
    """Pack reads the entries the tables name (of any operator, so stale rows beyond
    N/2 are never read) and unpack writes every entry, both bit for bit; a second
    unpack shows that nothing of the first is left in the scratch R."""
    rng = np.random.default_rng(n)
    sector, tables = resonances._RealSector(n, sign), _IndexTableSector(n, sign)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    want = tables.pack(a)
    assert sector.dim == want.size
    assert np.array_equal(sector.pack(a, np.empty(sector.dim)), want)
    for x in rng.standard_normal((2, sector.dim)):
        got = sector.unpack(x, np.empty((n, n), dtype=complex))
        assert np.array_equal(got, tables.unpack(x))


@pytest.mark.parametrize("spec", [cat_map(0.3), standard_map(1.5), harper_map(0.94)],
                         ids=["cat", "standard", "harper"])
@pytest.mark.parametrize("sign", [1, -1])
def test_krylov_steps_in_the_sector(monkeypatch, spec, sign):
    """At even N the Arnoldi steps after the first take the sector step, with the
    seed's sign; the first image, which decides the sector, and the residual checks
    take the full step.  The result agrees with the full step throughout."""
    n = 16
    space = TorusSpace(n)
    umap = quantize(spec, space)
    kernel = build_kernel(space, 10.0 / n)
    neg = -np.arange(n) % n
    a = random_traceless_hermitian(space, 5)
    a = (a + sign * a[np.ix_(neg, neg)]) / 2
    signs = []
    step = resonances._step

    def recording(umap, mask, at, sign=0):
        signs.append(sign)
        return step(umap, mask, at, sign)

    monkeypatch.setattr(resonances, "_step", recording)
    got = krylov_leading(umap, kernel, a, depth=30, n_wanted=3)
    m, keep = got.params["krylov_dim"], got.alphas.size
    assert signs == [0] + [sign] * (m - 1) + [0] * keep
    monkeypatch.setattr(resonances, "_keeps_parity", lambda umap: False)
    signs.clear()
    want = krylov_leading(umap, kernel, a, depth=30, n_wanted=3)
    assert not any(signs)
    assert got.params["sector"] == want.params["sector"] == ("even" if sign > 0 else "odd")
    for key in ("krylov_dim", "matvecs", "reorth"):
        assert got.params[key] == want.params[key], key
    assert np.abs(np.abs(got.alphas) - np.abs(want.alphas)).max() <= 1e-13
    assert np.array_equal(got.converged, want.converged)


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
        patch.setattr(resonances, "_step", lambda umap, mask, at: 1j * at)
        with pytest.raises(ValueError, match="not Hermitian"):
            krylov_leading(umap, kernel, sine_position(umap.space), depth=10, n_wanted=3)


def test_krylov_warns_when_space_closes_early():
    """The unitary k=0 cat map has period 6 at N=8, so the sixth power of its
    channel is the identity and the orbit of any seed spans at most six
    directions: the space closes exactly at 6 < 15, and each eigenvalue, a
    sixth root of unity many times over, would otherwise be listed once
    without notice."""
    umap = quantize(cat_map(0.0), TorusSpace(8))
    with pytest.warns(UserWarning, match="repeated eigenvalue is listed once"):
        spectrum = krylov_leading(umap, None, random_traceless_hermitian(umap.space, 497639016),
                                  depth=15, n_wanted=3)
    assert spectrum.params["krylov_dim"] == 6
    space = TorusSpace(4)
    seed = random_traceless_hermitian(space, 497639016)
    # a simple spectrum: the same seed spans the whole traceless space
    umap = quantize(cat_map(0.02), space)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spectrum = krylov_leading(umap, build_kernel(space, 0.7), seed, depth=15, n_wanted=3)
    assert spectrum.params["krylov_dim"] == 15
    assert not [w for w in caught if "closed" in str(w.message)]


def test_krylov_reorthogonalizes_only_when_needed():
    """The second Gram-Schmidt pass runs only when the first removes most of
    the new direction (the DGKS test).  Near full depth the new directions
    lie almost inside the basis, so it must fire; it is counted in params."""
    space = TorusSpace(7)
    umap = quantize(cat_map(0.02), space)
    spectrum = krylov_leading(umap, build_kernel(space, 0.5), random_traceless_hermitian(space, 3),
                              depth=48, n_wanted=3)
    assert spectrum.params["krylov_dim"] == 48
    assert 0 < spectrum.params["reorth"] < 48


def test_krylov_validation_and_determinism():
    space = TorusSpace(16)
    umap = quantize(cat_map(0.02), space)
    kernel = build_kernel(space, 0.5)
    with pytest.raises(ValueError):
        krylov_leading(umap, kernel, sine_position(space), depth=4, n_wanted=4)
    with pytest.raises(ValueError):
        krylov_leading(umap, kernel, np.eye(16, dtype=complex), depth=20)
    a = krylov_leading(umap, kernel, random_traceless_hermitian(space, 3), depth=25, n_wanted=3)
    b = krylov_leading(umap, kernel, random_traceless_hermitian(space, 3), depth=25, n_wanted=3)
    assert np.array_equal(a.alphas, b.alphas)


def test_krylov_refuses_n_wanted_below_one():
    """n_wanted = 0 used to reach alphas[0] of an empty list (IndexError) and
    -1 an empty-array error; both are refused before the channel is applied."""
    space = TorusSpace(8)
    umap = quantize(cat_map(0.02), space)
    kernel = build_kernel(space, 0.5)
    for n_wanted in (0, -1):
        with pytest.raises(ValueError, match="n_wanted must be >= 1"):
            krylov_leading(umap, kernel, sine_position(space), depth=10, n_wanted=n_wanted)


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
    return OtocSeries(t, np.zeros(t_max + 1), o1.astype(complex), np.full(t_max + 1, 0.25))


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
    direct0 = np.einsum("ij,jk,kl,li->", x, p, x, p) / n
    pred0 = spectral_o1_prediction(spectrum, x, p, 0)
    assert abs(pred0 - direct0) < 1e-8


def test_spectral_prediction_identity_coefficient_vanishes():
    umap, kernel, spectrum = _dense(12, cat_map(0.02), 0.8)
    x0 = np.vdot(spectrum.lefts[0], sine_position(umap.space))
    assert abs(x0) < 1e-10


def test_spectral_prediction_tracks_direct_iteration():
    n = 16
    umap, kernel, spectrum = _dense(n, cat_map(0.02), 0.625)
    x, p = sine_position(umap.space), sine_momentum(umap.space)
    at = x.copy()
    for t in range(1, 9):
        at = channel_step(umap, kernel, at)
        direct = np.einsum("ij,jk,kl,li->", at, p, at, p) / n
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
    coeffs = np.array([np.vdot(spectrum.lefts[i], x)
                       for i in range(spectrum.alphas.size)])
    contributing = np.where(np.abs(coeffs) > 1e-10)[0]
    order = contributing[np.argsort(-np.abs(spectrum.alphas[contributing]))]
    lead, sub = order[0], order[1]
    a1, a2 = spectrum.alphas[lead], spectrum.alphas[sub]
    assert abs(a1.imag) < 1e-10  # real leading resonance: clean decay, no envelope
    t11 = np.einsum("ij,jk,kl,li->", spectrum.rights[lead], p,
                    spectrum.rights[lead], p)
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
    at = x.copy()
    log_scale = 0.0
    for _ in range(t_star):
        at = channel_step(umap, kernel, at)
        norm = np.linalg.norm(at)
        log_scale += np.log(norm)
        at /= norm
    direct = np.einsum("ij,jk,kl,li->", at, p, at, p) / n * np.exp(2 * log_scale)
    assert abs(single(t_star) - direct) / abs(direct) < 0.10


def test_complex_leading_resonance_fit_targets_envelope():
    """A complex leading pair superposes oscillation on the decay; fitting
    through the oscillation nodes is meaningless, the local maxima recover
    the modulus."""
    alpha = 0.6 * np.exp(0.4j)
    t = np.arange(41)
    o1 = 0.2 * (alpha ** (2 * t) + np.conj(alpha) ** (2 * t))
    series = OtocSeries(t, np.zeros(t.size), o1, np.full(t.size, 0.25))
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
