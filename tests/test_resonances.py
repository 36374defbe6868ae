import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from otoclab import coarse_graining, phase_space, resonances
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
@example(5, harper_map, 0.94, CORRESPONDENCE, 0.7, -1, 3)  # the sector step at odd N
@example(7, harper_map, 0.6, AS_PRINTED, 1.1, 1, 4)
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


@pytest.mark.parametrize("n", [2, 7, 64, 320])
def test_random_traceless_hermitian_is_the_three_line_formula(n):
    """Built in its one array, the draw is bit for bit the formula it replaced."""
    space = TorusSpace(n)
    for seed in (0, 1, 7, 497639016):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want = (raw + raw.conj().T) / 2.0
        want -= np.trace(want) / n * np.eye(n)
        assert np.array_equal(random_traceless_hermitian(space, seed), want)


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

    def pack(self, r):
        r = r.reshape(-1)
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
        out.real, out.imag = r, -r.T
        return out


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 320])
@pytest.mark.parametrize("sign", [1, -1])
def test_sector_slices_match_the_index_tables(n, sign):
    """Pack reads the entries of R the tables name (of any R, so stale rows beyond N/2
    are never read) and write gives rows 0 .. N/2 of the R the tables unpack, both bit
    for bit; a second write over the first shows that nothing of it is left there."""
    rng = np.random.default_rng(n)
    sector, tables = resonances._RealSector(n, sign), _IndexTableSector(n, sign)
    r = rng.standard_normal((n, n))
    want = tables.pack(r)
    assert sector.dim == want.size
    assert np.array_equal(sector.pack(r, np.empty(sector.dim)), want)
    for x in rng.standard_normal((2, sector.dim)):
        sector.write(x, r)
        assert np.array_equal(r[:n // 2 + 1], tables.unpack(x).real[:n // 2 + 1])


@pytest.mark.parametrize("spec", [cat_map(0.3), standard_map(1.5), harper_map(0.94)],
                         ids=["cat", "standard", "harper"])
@pytest.mark.parametrize("sign", [1, -1])
def test_krylov_steps_in_the_sector(monkeypatch, spec, sign):
    """At even N every Arnoldi step, the first included, and every residual matvec takes
    the sector step with the seed's sign.  The result agrees to rounding with the run
    that has no sector, where every step is full and every entry of R is stored."""
    n = 16
    space = TorusSpace(n)
    umap = quantize(spec, space)
    kernel = build_kernel(space, 10.0 / n)
    neg = -np.arange(n) % n
    a = random_traceless_hermitian(space, 5)
    a = (a + sign * a[np.ix_(neg, neg)]) / 2
    signs = []
    step = resonances._step

    def recording(umap, mask, at, sign=0, scratch=None):
        signs.append(sign)
        return step(umap, mask, at, sign, scratch)

    monkeypatch.setattr(resonances, "_step", recording)
    got = krylov_leading(umap, kernel, a, depth=30, n_wanted=3)
    m, keep = got.params["krylov_dim"], got.alphas.size
    assert signs == [sign] * got.params["matvecs"]
    assert m < got.params["matvecs"] <= m + 2 * keep  # one or two a Ritz value, none a partner
    monkeypatch.setattr(resonances, "_keeps_parity", lambda umap: False)
    signs.clear()
    want = krylov_leading(umap, kernel, a, depth=30, n_wanted=3)
    assert not any(signs)
    assert got.params["sector"] == ("even" if sign > 0 else "odd")
    assert want.params["sector"] == "none"
    for key in ("krylov_dim", "matvecs", "reorth"):
        assert got.params[key] == want.params[key], key
    assert np.abs(np.abs(got.alphas) - np.abs(want.alphas)).max() <= 1e-13
    assert np.array_equal(got.converged, want.converged)


def _unpack(sector, x, out):
    """Z = R - iR^T of the coordinates ``x`` into ``out``: the index tables' unpack in a
    sector, the sector's own without one."""
    if not sector.sign:
        return sector.unpack(x, out)
    np.copyto(out, _IndexTableSector(sector.n, sector.sign).unpack(x))
    return out


def _sector_seed(space, sign, seed=5):
    """A random traceless Hermitian operator of parity ``sign``, or of none for 0."""
    a = random_traceless_hermitian(space, seed)
    if not sign:
        return a
    neg = -np.arange(space.dim) % space.dim
    return (a + sign * a[np.ix_(neg, neg)]) / 2


@pytest.mark.parametrize("spec", [cat_map(0.3), standard_map(1.5), harper_map(0.94)],
                         ids=["cat", "standard", "harper"])
@pytest.mark.parametrize("n", [8, 33, 64])
@pytest.mark.parametrize("sign", [1, -1, 0], ids=["even", "odd", "none"])
def test_krylov_coordinate_residuals_match_the_full_step(monkeypatch, spec, n, sign):
    """Each residual, read from the Ritz coordinates x + iy through the loop's matvec as
    ||(Sx - ax + by, Sy - ay - bx)|| / ||(x, y)||, agrees to 1e-13 with the full-step
    form: Z = (1 - i)(X + iY) unpacked (by the index tables in a sector), normalized,
    given the full step, and ||S Z - alpha Z|| (operators of unit norm, so the
    tolerance is absolute).  The coordinates are read from the basis, whose first rows
    hold x, or x and y, of each listed Ritz vector in turn once the call returns.  A listed conjugate partner
    x - iy takes no rows and gets its pair's residual, and the full step gives it the
    same one."""
    space = TorusSpace(n)
    umap, kernel = quantize(spec, space), build_kernel(space, 10.0 / n)
    bases = []
    pack = resonances._RealSector.pack

    def recording(self, r, out):
        if out.base is not None and not bases:  # basis[0], a row of the basis
            bases.append((self, out.base))
        return pack(self, r, out)

    monkeypatch.setattr(resonances._RealSector, "pack", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = krylov_leading(umap, kernel, _sector_seed(space, sign), depth=30, n_wanted=6)
    sector, basis = bases[0]
    mask = coarse_graining._mask(kernel)
    buf = np.empty((n, n), dtype=complex)
    want, rows, row = [], [], 0
    for i, alpha in enumerate(got.alphas):
        pair = [j for j in range(i) if got.alphas[j] == alpha.conjugate() and alpha.imag]
        if pair:
            assert got.residuals[i] == got.residuals[pair[0]]
            x, y = rows[pair[0]]
            y = -y
        elif alpha.imag:
            x, y = basis[row], basis[row + 1]
            row += 2
        else:
            x, y = basis[row], np.zeros_like(basis[row])
            row += 1
        rows.append((x, y))
        z = _unpack(sector, x, np.empty((n, n), dtype=complex))
        z += 1j * _unpack(sector, y, buf)
        z /= np.linalg.norm(z)
        np.copyto(buf, z)
        coarse_graining._step(umap, mask, buf)
        want.append(np.linalg.norm(buf - alpha * z))
    assert got.params["matvecs"] == got.params["krylov_dim"] + row
    assert np.abs(got.residuals - want).max() <= 1e-13


@pytest.mark.parametrize("spec, n", [(cat_map(0.02), 16), (harper_map(0.94), 15),
                                     (standard_map(1.5), 15)], ids=["cat-16", "harper-15",
                                                                    "standard-15"])
def test_krylov_displacement_seed_is_the_sine_seed(spec, n):
    """The displacement (0, 1) stands for F_(0,1), the sine seed: the same alphas,
    residuals and counts, bit for bit, in the odd sector and without one.  A
    displacement whose F_xi is zero is refused as the zero array is."""
    space = TorusSpace(n)
    umap, kernel = quantize(spec, space), build_kernel(space, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = krylov_leading(umap, kernel, (0, 1), depth=20, n_wanted=4)
        want = krylov_leading(umap, kernel, sine_position(space), depth=20, n_wanted=4)
    assert np.array_equal(got.alphas, want.alphas)
    assert np.array_equal(got.residuals, want.residuals)
    assert got.params == want.params
    with pytest.raises(ValueError, match="Krylov seed must be finite and nonzero"):
        krylov_leading(umap, kernel, (0, 0), depth=20, n_wanted=4)


@pytest.mark.parametrize("spec, n", [(cat_map(0.02), 16), (harper_map(0.94), 15)],
                         ids=["cat-16", "harper-15"])
def test_krylov_integer_seed_is_the_random_seed(spec, n):
    """An integer seed stands for random_traceless_hermitian of that seed, which the
    call draws itself: the same alphas, residuals and counts, bit for bit.  A negative
    seed is refused by name."""
    space = TorusSpace(n)
    umap, kernel = quantize(spec, space), build_kernel(space, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = krylov_leading(umap, kernel, 3, depth=20, n_wanted=4)
        want = krylov_leading(umap, kernel, random_traceless_hermitian(space, 3), depth=20,
                              n_wanted=4)
    assert np.array_equal(got.alphas, want.alphas)
    assert np.array_equal(got.residuals, want.residuals)
    assert got.params == want.params
    with pytest.raises(ValueError, match="Krylov seed must be non-negative"):
        krylov_leading(umap, kernel, -1, depth=20, n_wanted=4)


@pytest.mark.parametrize("spec, n", [(cat_map(0.02), 128), (cat_map(0.02), 63)],
                         ids=["sector-step-128", "full-step-63"])
def test_krylov_residual_checks_hold_no_array_beside_the_buffer(monkeypatch, spec, n):
    """At every channel application of a sine-seeded run, the first image, the Arnoldi
    steps and the residual matvecs, the only traced block as large as the working array
    or larger besides the basis is the working array: no Ritz operator, no temporary of
    its imaginary part and no seed array or copy of one, in the odd sector (N=128, where
    the array is R on rows 0 .. N/2 with its half spectrum, about 8 N^2 bytes) and
    without one (the cat map at N=63, a complex N x N array of 16 N^2 bytes).  The seed
    is the displacement (0, 1) and then the caller's own sine array, made before
    tracing starts."""
    space = TorusSpace(n)
    umap, kernel = quantize(spec, space), build_kernel(space, 10.0 / n)
    depth = 20
    big = phase_space._working(n, -1).base.size if n % 2 == 0 else 16 * n * n
    assert big < 9 * n * n or n % 2
    step = resonances._step
    for a0 in ((0, 1), sine_position(space)):
        seen = []

        def snapshotting(umap, mask, at, sign=0, scratch=None):
            seen.append(sorted(t.size for t in tracemalloc.take_snapshot().traces
                               if t.size >= big))
            return step(umap, mask, at, sign, scratch)

        monkeypatch.setattr(resonances, "_step", snapshotting)
        tracemalloc.start()
        try:
            got = krylov_leading(umap, kernel, a0, depth=depth, n_wanted=4)
        finally:
            tracemalloc.stop()
        sign = {"odd": -1, "none": 0}[got.params["sector"]]
        assert sign == (0 if n % 2 else -1)
        basis = 8 * (depth + 1) * resonances._RealSector(n, sign).dim
        assert got.params["krylov_dim"] == depth and len(seen) == got.params["matvecs"] > depth
        assert all(sizes == sorted([big, basis]) for sizes in seen), seen


def test_krylov_sector_is_checked_on_the_channel_image():
    """The sine seed is parity odd.  At even N the cat channel keeps the odd
    sector and the basis halves; at odd N its kick phases are not mirror-symmetric,
    and the basis keeps every entry with the same result as a full-depth run shows.
    A channel image that is not Hermitian cannot be stored in real numbers and is
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
    with pytest.raises(ValueError, match="^window \\[8, 10\\] holds fewer than the 4 samples"):
        fit_tail_rate(series, 8, 10)  # too short
    with pytest.raises(ValueError):
        fit_tail_rate(series, 3, 12, t_ehrenfest=6.4)  # starts before ceil(t_E)
    with pytest.warns(UserWarning, match="floor"):
        fit_tail_rate(_synthetic_series(0.2, floor=1e-15), 14, 22)


def test_fit_tail_rate_refuses_an_end_past_the_series():
    """An end past the last step used to fit t = 5 .. 24 and record the window as asked."""
    with pytest.raises(ValueError, match="^t_end 100 is past the series' last step t = 24$"):
        fit_tail_rate(_synthetic_series(0.5), 5, 100)


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


def test_full_spectrum_flags_a_defective_superoperator():
    """A 2 x 2 Jordan block has one eigenvector, so its left and right eigenvectors
    are orthogonal: the overlap is replaced by 1 and the spectrum flagged."""
    superop = np.diag([0.9, 0.9, 0.5, 0.2]).astype(complex)
    superop[0, 1] = 1.0
    with pytest.warns(UserWarning, match="near-defective eigenpair"):
        spectrum = full_spectrum(superop)
    assert spectrum.degenerate
    assert np.allclose(np.sort(np.abs(spectrum.alphas)), [0.2, 0.5, 0.9, 0.9])
    assert np.isfinite(spectrum.lefts).all()

