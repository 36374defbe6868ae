"""Ruelle-Pollicott resonance extraction from the coarse-grained channel.

The channel S_eps(A) = D_eps(U^dag A U) is unital, contracting, and not
normal.  Its eigenvalue 1 belongs to the identity; every other eigenvalue
lies strictly inside the unit disk for chaotic maps with epsilon > 0, and
in the regime epsilon N ~ const the leading nontrivial moduli stabilize at
the classical Ruelle-Pollicott resonances.  Three extraction routes live
here: full dense diagonalization of the N^2 x N^2 superoperator (small-N
oracle), Arnoldi iteration in operator space (production path, works on the
traceless sector so the identity never contaminates the leading Ritz
values), and exponential-tail fits of correlator series.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .coarse_graining import CoarseGrainKernel, channel_step
from .maps import QuantumMap
from .otoc import OtocSeries, loglinear_fit
from .phase_space import OperatorMatrix, POSITION, TorusSpace

__all__ = [
    "ResonanceSpectrum",
    "TailFit",
    "dense_superoperator",
    "full_spectrum",
    "krylov_leading",
    "fit_tail_rate",
    "spectral_o1_prediction",
    "random_traceless_hermitian",
]

_DENSE_LIMIT = 24
_KRYLOV_RESIDUAL_TOL = 1e-4


@dataclass(frozen=True)
class ResonanceSpectrum:
    """Channel eigenvalues sorted by decreasing modulus, with diagnostics.

    ``includes_identity`` says whether the alpha_0 = 1 direction is part of
    ``alphas`` (dense spectra) or was projected out from the start (Krylov on
    traceless seeds).  Dense spectra also carry the biorthogonalized left and
    right eigenoperators needed for spectral predictions.
    """

    alphas: np.ndarray
    method: str
    params: dict
    residuals: np.ndarray | None = None
    converged: np.ndarray | None = None
    degenerate: bool = False
    includes_identity: bool = True
    rights: np.ndarray | None = field(default=None, repr=False)
    lefts: np.ndarray | None = field(default=None, repr=False)

    @property
    def nontrivial(self) -> np.ndarray:
        """Eigenvalues with the identity direction removed."""
        if not self.includes_identity:
            return self.alphas
        drop = int(np.argmin(np.abs(self.alphas - 1.0)))
        return np.delete(self.alphas, drop)

    @property
    def alpha1(self) -> complex:
        """Leading nontrivial eigenvalue."""
        return complex(self.nontrivial[0])

    def leading_cluster(self, rtol: float = 0.01) -> np.ndarray:
        """All nontrivial eigenvalues within rtol modulus of the leader.

        More than one entry means the decay rate read off a correlator tail
        reflects an average over competing resonances.
        """
        nt = self.nontrivial
        lead = np.abs(nt[0])
        return nt[np.abs(np.abs(nt) - lead) <= rtol * lead]


def dense_superoperator(umap: QuantumMap, kernel: CoarseGrainKernel | None,
                        force: bool = False) -> np.ndarray:
    """Matrix of the channel on the basis of elementary matrix units.

    Column j is the channel step applied to the j-th unit (row-major vec),
    an N^2 x N^2 array.  Refused above N = 24 unless forced.
    """
    n = umap.dim
    if n > _DENSE_LIMIT and not force:
        raise ValueError(f"dense superoperator is {n * n} x {n * n}; pass force=True above N={_DENSE_LIMIT}")
    s = np.empty((n * n, n * n), dtype=complex)
    unit = np.zeros((n, n), dtype=complex)
    for j in range(n * n):
        unit[j // n, j % n] = 1.0
        s[:, j] = channel_step(umap, kernel, unit).reshape(-1)
        unit[j // n, j % n] = 0.0
    return s


def full_spectrum(superop: np.ndarray, params: dict | None = None) -> ResonanceSpectrum:
    """All eigenvalues with biorthogonalized left/right eigenoperators.

    Right eigenoperators keep unit Hilbert-Schmidt norm; left ones are
    rescaled so Tr(L_i^dag R_j) = delta_ij (exact biorthogonality and unit
    normalization of both sides cannot hold simultaneously for a non-normal
    operator).  Near-degenerate spectra are flagged: the rank-one spectral
    decomposition breaks down there.
    """
    dim2 = superop.shape[0]
    n = int(round(np.sqrt(dim2)))
    if n * n != dim2:
        raise ValueError("superoperator must be N^2 x N^2")
    w, vl, vr = scipy.linalg.eig(superop, left=True, right=True)
    order = np.argsort(-np.abs(w))
    w, vl, vr = w[order], vl[:, order], vr[:, order]
    vr /= np.linalg.norm(vr, axis=0)[None, :]
    overlaps = np.einsum("ki,ki->i", vl.conj(), vr)
    degenerate = False
    if np.abs(overlaps).min() < 1e-10:
        degenerate = True
        warnings.warn("near-defective eigenpair: left/right overlap below 1e-10", stacklevel=2)
        overlaps = np.where(np.abs(overlaps) < 1e-10, 1.0, overlaps)
    vl = vl / overlaps.conj()[None, :]
    gaps = np.abs(w[:-1] - w[1:])
    if gaps.size and gaps.min() < 1e-8:
        degenerate = True
    residuals = np.linalg.norm(superop @ vr - vr * w[None, :], axis=0)
    return ResonanceSpectrum(
        alphas=w, method="dense", params=params or {},
        residuals=residuals, converged=residuals < 1e-8, degenerate=degenerate,
        includes_identity=True,
        rights=vr.T.reshape(dim2, n, n), lefts=vl.T.reshape(dim2, n, n))


def random_traceless_hermitian(space: TorusSpace, seed: int = 0) -> OperatorMatrix:
    """Seeded random Hermitian operator with the trace projected out."""
    rng = np.random.default_rng(seed)
    n = space.dim
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (raw + raw.conj().T) / 2.0
    h -= np.trace(h) / n * np.eye(n)
    return OperatorMatrix(h, POSITION)


class _RealSector:
    """Real coordinates of the Hermitian operators in one parity sector.

    A Hermitian A = S + iK (S real symmetric, K real antisymmetric) is the
    real matrix R = A.real + A.imag, with Tr(A^dag B) = R_A . R_B and
    A = (R + R^T)/2 + i(R - R^T)/2.  Parity A[i, j] -> A[-i, -j] preserves
    R; in a sector A[-i, -j] = sign A[i, j] only one entry per mirror pair is
    kept, scaled by sqrt 2 so the dot product stays the Hilbert-Schmidt one,
    plus (even sector only) the 1 or 4 self-mirrored entries.  ``sign`` 0
    keeps every entry of R.
    """

    def __init__(self, n: int, sign: int):
        self.n, self.sign, self.dim = n, sign, n * n
        if sign:
            flat = np.arange(n * n)
            mirror = ((-(flat // n)) % n) * n + (-flat) % n
            self.pairs = flat[flat < mirror]
            self.mirrors = mirror[self.pairs]
            self.fixed = flat[flat == mirror] if sign > 0 else flat[:0]
            self.dim = self.pairs.size + self.fixed.size

    def pack(self, a: np.ndarray) -> np.ndarray:
        r = (a.real + a.imag).reshape(-1)
        if self.sign == 0:
            return r
        return np.concatenate((np.sqrt(2.0) * r[self.pairs], r[self.fixed]))

    def unpack(self, x: np.ndarray) -> np.ndarray:
        if self.sign == 0:
            r = x.reshape(self.n, self.n)
        else:
            half = x[: self.pairs.size] / np.sqrt(2.0)
            r = np.zeros(self.n * self.n)
            r[self.pairs] = half
            r[self.mirrors] = self.sign * half
            r[self.fixed] = x[self.pairs.size:]
            r = r.reshape(self.n, self.n)
        a = np.empty((self.n, self.n), dtype=complex)
        np.add(r, r.T, out=a.real)
        np.subtract(r, r.T, out=a.imag)
        a *= 0.5
        return a


_SECTOR_NAMES = {1: "even", -1: "odd", 0: "none"}


def _parity(x: np.ndarray) -> int:
    """+1 or -1 when x[-i, -j] = +-x[i, j] to 1e-12 relative, else 0."""
    neg = -np.arange(x.shape[0]) % x.shape[0]
    mirrored = x[np.ix_(neg, neg)]
    limit = 1e-12 * np.linalg.norm(x)
    return next((s for s in (1, -1) if np.linalg.norm(x - s * mirrored) <= limit), 0)


def krylov_leading(umap: QuantumMap, kernel: CoarseGrainKernel | None,
                   a0: OperatorMatrix, depth: int = 40, n_wanted: int = 5) -> ResonanceSpectrum:
    """Leading channel eigenvalues by Arnoldi iteration in operator space.

    Builds the forward orbit of a traceless Hermitian seed, orthonormalizes
    it in the Hilbert-Schmidt inner product with full reorthogonalization
    (the channel is not normal, so plain Lanczos three-term recurrences are
    unsafe), projects the channel onto the subspace, and returns the largest
    Ritz values by modulus.  Residuals ||S R - alpha R|| are recomputed
    explicitly for the returned pairs; entries above 1e-4 are marked
    unconverged.  Deterministic given the seed operator and the BLAS thread
    count (threaded reductions may change the last bits).

    The channel maps Hermitian operators to Hermitian operators, and the
    Harper channel at every N and the cat and standard channels at even N
    commute with parity q -> -q, so the orbit of a Hermitian seed of definite
    parity stays in the seed's sector.  Each Krylov direction is stored as
    the real coordinates of :class:`_RealSector`: one entry per mirror pair
    in the even or odd sector (about N^2 / 2 reals; the odd sector holds no
    identity component), all N^2 entries of A.real + A.imag otherwise.  The
    sector is read from the seed and kept only if the first channel image
    has the same parity to 1e-12; an image that is not Hermitian to 1e-12
    raises.  The basis is one preallocated (depth + 1) x d real array, d the
    sector dimension; each step orthogonalizes by classical Gram-Schmidt run
    twice (CGS2, "twice is enough"), a pass being two real matrix-vector
    products against the rows built so far.  Ritz operators are assembled
    one at a time from the real and imaginary parts of their coefficients.
    Memory is that of the basis, 8 (depth + 1) d bytes: at N = 1000, depth 90
    about 364 MB in a parity sector (the sine seed is odd; the run peaks at
    575 MB of RSS) and 728 MB without one, against 1.46 GB for a complex
    basis.  ``params`` records
    ``sector`` (even, odd or none), ``krylov_dim`` (the dimension reached,
    below ``depth`` when an invariant subspace closes early, which warns) and
    ``matvecs`` (channel applications, including the residual checks).
    """
    if depth < n_wanted + 2:
        raise ValueError(f"depth must be at least n_wanted + 2 = {n_wanted + 2}, got {depth}")
    entries = a0.to_basis(umap.space, POSITION).entries
    n = umap.dim
    scale = np.linalg.norm(entries)
    if np.linalg.norm(entries - entries.conj().T) > 1e-12 * scale:
        raise ValueError("Krylov seed must be Hermitian")
    trace = abs(np.trace(entries))
    if trace > 1e-9 * max(1.0, scale):
        raise ValueError(f"Krylov seed must be traceless, got |Tr| = {trace:.2e}")
    a = entries / scale
    image = channel_step(umap, kernel, a)
    if np.linalg.norm(image - image.conj().T) > 1e-12 * np.linalg.norm(image):
        raise ValueError("channel image of the Hermitian seed is not Hermitian")
    # The seed's parity sector, kept only when its image stays in it: the
    # quadratic kicks of the cat and standard maps break parity at odd N.
    sign = _parity(a) if _parity(image) == _parity(a) else 0
    sector = _RealSector(n, sign)
    # the odd sector is traceless by construction; elsewhere every new
    # direction has its identity component projected out (see below)
    ident = sector.pack(np.eye(n) / np.sqrt(n)) if sign >= 0 else np.zeros(sector.dim)
    diag = np.flatnonzero(ident)
    ident = ident[diag]

    basis = np.empty((depth + 1, sector.dim))
    basis[0] = sector.pack(a)
    basis[0] /= np.linalg.norm(basis[0])
    m = depth
    h = np.zeros((depth + 1, depth))
    for j in range(depth):
        if j:
            image = channel_step(umap, kernel, sector.unpack(basis[j]))
        w = sector.pack(image)
        v = basis[: j + 1]
        for _ in range(2):
            coeff = v @ w
            h[: j + 1, j] += coeff
            w -= coeff @ v
        # The identity is the channel's dominant eigenoperator, outside the
        # traceless sector the resonances live in.  Gram-Schmidt never removes
        # it, and dividing by a small h[j+1, j] amplifies the rounding noise
        # along it (10x a step late in a deep run), so every new direction
        # has its trace projected out.
        w[diag] -= (ident @ w[diag]) * ident
        norm = np.linalg.norm(w)
        h[j + 1, j] = norm
        if norm < 1e-13:
            m = j + 1  # invariant subspace found
            break
        np.divide(w, norm, out=basis[j + 1])
    if m < depth:
        warnings.warn(
            f"Krylov space closed at dimension {m} < depth {depth}: its Ritz values are exact, "
            "but a single seed holds one eigenoperator per eigenvalue, so a repeated "
            "eigenvalue is listed once", stacklevel=2)

    ritz, vecs = np.linalg.eig(h[:m, :m])
    # h is real, so complex Ritz values come in exact conjugate pairs of equal
    # modulus: list the member with positive imaginary part first
    order = np.lexsort((-ritz.imag, -np.abs(ritz)))
    ritz, vecs = ritz[order], vecs[:, order]
    keep = min(n_wanted, m)
    residuals = np.empty(keep)
    for i in range(keep):
        # one Ritz operator at a time, each part a real product: a complex
        # coefficient vector times the real basis would cast the whole basis
        op = sector.unpack(vecs[:, i].real @ basis[:m])
        if vecs[:, i].imag.any():
            op += 1j * sector.unpack(vecs[:, i].imag @ basis[:m])
        op /= np.linalg.norm(op)
        residuals[i] = np.linalg.norm(channel_step(umap, kernel, op) - ritz[i] * op)
    converged = residuals < _KRYLOV_RESIDUAL_TOL
    if not converged.all():
        warnings.warn(
            f"{(~converged).sum()} of {keep} Ritz values above residual {_KRYLOV_RESIDUAL_TOL}; "
            "increase depth", stacklevel=2)
    alphas = ritz[:keep]
    lead = np.abs(alphas[0])
    cluster = int((np.abs(np.abs(alphas) - lead) <= 0.01 * lead).sum())
    if cluster > 1:
        warnings.warn(f"{cluster} eigenvalues within 1% modulus of the leader; "
                      "tail decays will look averaged", stacklevel=2)
    return ResonanceSpectrum(
        alphas=alphas, method="krylov",
        params={"n": n, "epsilon": 0.0 if kernel is None else kernel.epsilon,
                "map": umap.map_spec, "depth": depth, "sector": _SECTOR_NAMES[sign],
                "krylov_dim": m, "matvecs": m + keep},
        residuals=residuals, converged=converged,
        degenerate=cluster > 1, includes_identity=False)


@dataclass(frozen=True)
class TailFit:
    """Exponential tail fit of |O1|: the modulus estimate plus fit quality."""

    alpha1: float
    slope: float
    intercept: float
    r2: float
    window: tuple[int, int]


def fit_tail_rate(series: OtocSeries, t_start: int, t_end: int,
                  t_ehrenfest: float | None = None) -> TailFit:
    """|alpha_1| = exp(slope/2) from least squares on ln |O1(t)|.

    The window must hold at least four samples and, when the Ehrenfest time
    is supplied, start at or beyond it (the growth regime would bias the
    slope).  Warns when |O1| dips to the numerical trace floor inside the
    window, where the fit degrades into noise.
    """
    if t_end - t_start < 3:
        raise ValueError("tail window must contain at least 4 time steps")
    if t_ehrenfest is not None and t_start < np.ceil(t_ehrenfest):
        raise ValueError(f"tail window must start at or after ceil(t_E) = {np.ceil(t_ehrenfest):.0f}")
    mask = (series.t >= t_start) & (series.t <= t_end)
    if mask.sum() < 4:
        raise ValueError(f"window [{t_start}, {t_end}] selects fewer than 4 samples")
    o1 = series.o1_abs[mask]
    if o1.min() < 1e-13:
        warnings.warn("|O1| reached the numerical floor inside the fit window", stacklevel=2)
    slope, intercept, r2 = loglinear_fit(series.t[mask], o1)
    return TailFit(float(np.exp(slope / 2.0)), slope, intercept, r2, (int(t_start), int(t_end)))


def spectral_o1_prediction(spectrum: ResonanceSpectrum, a: OperatorMatrix,
                           b: OperatorMatrix, t: int, terms: int | None = None) -> complex:
    """O1(t) predicted from the spectral decomposition of the channel.

    Expands A over right eigenoperators with coefficients x_i = Tr(L_i^dag A),
    evolves each term as alpha_i^t, and evaluates Tr(A(t) B A(t) B)/N.  With
    ``terms`` the expansion is truncated to that many leading eigenvalues;
    the identity direction contributes x_0 = Tr(A)/N = 0 for traceless A, so
    ``terms=2`` isolates the leading resonance.
    """
    if spectrum.rights is None or spectrum.lefts is None:
        raise ValueError("spectral prediction needs a dense spectrum with eigenoperators")
    n = spectrum.rights.shape[1]
    count = spectrum.alphas.size if terms is None else min(terms, spectrum.alphas.size)
    ae = a.entries
    be = b.entries
    at = np.zeros((n, n), dtype=complex)
    for i in range(count):
        x_i = np.vdot(spectrum.lefts[i], ae)
        at += x_i * spectrum.alphas[i] ** t * spectrum.rights[i]
    return complex(np.einsum("ij,jk,kl,li->", at, be, at, be) / n)
