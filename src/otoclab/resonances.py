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
from dataclasses import dataclass, field, replace

import numpy as np

from .coarse_graining import CoarseGrainKernel, _keeps_parity, _mask, _step, channel_step
from .maps import QuantumMap
from .otoc import OtocSeries, WindowFit, loglinear_fit
from .phase_space import (_SECTOR_NAMES, MOMENTUM, TorusSpace, _change_frame, _mirror_fill,
                          _mirror_rows, _operator, _parity)

__all__ = [
    "ResonanceSpectrum",
    "dense_superoperator",
    "full_spectrum",
    "krylov_leading",
    "fit_tail_rate",
    "spectral_o1_prediction",
    "random_traceless_hermitian",
]

_DENSE_LIMIT = 24
_KRYLOV_RESIDUAL_TOL = 1e-4


@dataclass(frozen=True, eq=False)
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


def dense_superoperator(umap: QuantumMap, kernel: CoarseGrainKernel | None) -> np.ndarray:
    """Matrix of the channel on the basis of elementary matrix units.

    Column j is the channel step applied to the j-th unit (row-major vec),
    an N^2 x N^2 array.  Refused above N = 24.
    """
    n = umap.dim
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense superoperator is {n * n} x {n * n}; refused above N={_DENSE_LIMIT}")
    s = np.empty((n * n, n * n), dtype=complex)
    unit = np.zeros((n, n), dtype=complex)
    for j in range(n * n):
        unit[j // n, j % n] = 1.0
        s[:, j] = channel_step(umap, kernel, unit).reshape(-1)
        unit[j // n, j % n] = 0.0
    return s


def full_spectrum(superop: np.ndarray, params: dict | None = None) -> ResonanceSpectrum:
    """All eigenvalues with biorthogonalized left/right eigenoperators.

    Eigenvalues are sorted by decreasing modulus, the member of a conjugate
    pair with positive imaginary part first.  Right eigenoperators keep unit
    Hilbert-Schmidt norm; left ones are rescaled so Tr(L_i^dag R_j) = delta_ij
    (exact biorthogonality and unit normalization of both sides cannot hold
    simultaneously for a non-normal operator).  Near-degenerate spectra are
    flagged: the rank-one spectral decomposition breaks down there.
    """
    dim2 = superop.shape[0]
    n = int(round(np.sqrt(dim2)))
    if n * n != dim2:
        raise ValueError("superoperator must be N^2 x N^2")
    import scipy.linalg  # only this oracle needs it: imported on demand to keep start-up cheap
    w, vl, vr = scipy.linalg.eig(superop, left=True, right=True)
    order = np.argsort(-np.abs(w))
    # the members of a conjugate pair have equal moduli up to round-off, so
    # list the one with positive imaginary part first, as krylov_leading does
    for i in range(order.size - 1):
        x, y = w[order[i]], w[order[i + 1]]
        if x.imag < 0 < y.imag and abs(x - y.conjugate()) <= 1e-10 * abs(x):
            order[i], order[i + 1] = order[i + 1], order[i]
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


def random_traceless_hermitian(space: TorusSpace, seed: int = 0) -> np.ndarray:
    """Seeded random Hermitian operator with the trace projected out."""
    rng = np.random.default_rng(seed)
    n = space.dim
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (raw + raw.conj().T) / 2.0
    h -= np.trace(h) / n * np.eye(n)
    return h


class _RealSector:
    """Real coordinates of the Hermitian operators in one parity sector.

    A Hermitian A = S + iK (S real symmetric, K real antisymmetric) is the
    real matrix R = A.real + A.imag, with Tr(A^dag B) = R_A . R_B and
    A = (R + R^T)/2 + i(R - R^T)/2.  Parity A[i, j] -> A[-i, -j] preserves
    R, so in a sector A[-i, -j] = sign A[i, j] R is fixed by its rows
    0 .. N/2, the layout of the sector step (see
    :func:`~otoclab.phase_space._change_frame`).  One entry per mirror pair
    is kept, scaled by sqrt 2 so the dot product stays the Hilbert-Schmidt
    one, as slices of those rows in flat order: row 0 columns
    1 .. ceil(N/2) - 1, rows 1 .. ceil(N/2) - 1 whole and, at even N, row N/2
    columns 1 .. N/2 - 1; then, in the even sector only, the self-mirrored
    entries (0, 0) and, at even N, (0, h), (h, 0) and (h, h), h = N/2.
    ``sign`` 0 keeps every entry of R.  :meth:`pack` reads only those rows;
    :meth:`unpack` writes every entry of the caller's buffer, through one
    scratch R allocated once.
    """

    def __init__(self, n: int, sign: int):
        h, c = n // 2, (n + 1) // 2
        # unpack's scratch R: np.zeros leaves its pages untouched when there is no
        # sector, and keeps the self-mirrored entries 0 in the odd one
        self.n, self.sign, self._r = n, sign, np.zeros((n, n))
        # (rows, columns) of R in coordinate order: the mirror pairs, then the fixed entries
        views = ([(slice(0, 1), slice(1, c)), (slice(1, c), slice(None)),
                  (slice(c, h + 1), slice(1, h))] if sign else [(slice(None), slice(None))])
        self._pairs = sum(self._r[v].size for v in views) if sign else 0
        if sign > 0:  # the self-mirrored entries, zero and not stored in the odd sector
            fixed = slice(0, h + 1, h) if n % 2 == 0 else slice(0, 1)
            views.append((fixed, fixed))
        edges = np.cumsum([0] + [self._r[v].size for v in views])
        self._views = [(v, slice(lo, hi)) for v, lo, hi in zip(views, edges, edges[1:])]
        self.dim = int(edges[-1])

    def pack(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        for v, seg in self._views:
            view = a[v]
            np.add(view.real, view.imag, out=out[seg].reshape(view.shape))
        out[:self._pairs] *= np.sqrt(2.0)
        return out

    def unpack(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        if self.sign == 0:
            r = x.reshape(self.n, self.n)
        else:
            r, h = self._r, self.n // 2
            for v, seg in self._views:
                np.divide(x[seg].reshape(r[v].shape),
                          np.sqrt(2.0) if seg.start < self._pairs else 1.0, out=r[v])
            _mirror_rows(r, slice(h + 1, self.n), self.sign)
            _mirror_fill(r, slice(0, 1), self.sign)
            if self.n % 2 == 0:
                _mirror_fill(r, slice(h, h + 1), self.sign)
        np.add(r, r.T, out=out.real)
        np.subtract(r, r.T, out=out.imag)
        out *= 0.5
        return out


def krylov_leading(umap: QuantumMap, kernel: CoarseGrainKernel | None,
                   a0: np.ndarray, depth: int = 40, n_wanted: int = 5) -> ResonanceSpectrum:
    """Leading channel eigenvalues by Arnoldi iteration in operator space.

    Builds the forward orbit of a traceless Hermitian seed, orthonormalizes
    it in the Hilbert-Schmidt inner product against every earlier direction
    (the channel is not normal, so plain Lanczos three-term recurrences are
    unsafe), projects the channel onto the subspace, and returns the largest
    Ritz values by modulus.  Residuals ||S R - alpha R|| are recomputed
    explicitly for the returned pairs; entries above 1e-4 are marked
    unconverged.  Deterministic given the seed operator and the BLAS thread
    count (threaded reductions may change the last bits).

    The recursion runs on momentum-frame operators.  The seed changes frame
    once; the change is unitary, so the Hilbert-Schmidt product, Hermiticity,
    the identity and parity (q -> -q is p -> -p) keep their form there.  Each
    channel application, residual checks included, is the in-place step that
    :func:`~otoclab.coarse_graining.evolve` iterates, on one complex buffer
    reused for the whole run: four 1D FFT passes, where a matvec that starts
    and ends in the position frame needs eight.

    The channel maps Hermitian operators to Hermitian operators, and the
    Harper channel at every N and the cat and standard channels at even N
    commute with parity, so the orbit of a Hermitian seed of definite parity
    stays in the seed's sector.  Each Krylov direction is stored as the real
    coordinates of :class:`_RealSector`: in the even or odd sector one entry
    per mirror pair, slices of rows 0 .. N/2 (about N^2 / 2 reals; the odd
    sector holds no identity component), all N^2 entries of A.real + A.imag
    otherwise.  The sector is read from the seed and kept only if the first
    channel image, a full step, has the same parity to 1e-12; an image that
    is not Hermitian to 1e-12 raises.  Where the channel keeps parity in the
    form the sector step uses (even N, see
    :func:`~otoclab.coarse_graining._keeps_parity`), every later step of the
    recursion is that step, on rows 0 .. N/2 only, which are the rows the
    coordinates are read from.  The residual checks take the full step, so
    they also check the sector steps independently.  The basis is one
    preallocated (depth + 1) x d real array, d the sector dimension.  Each
    channel image is packed straight into the next row and orthogonalized by
    classical Gram-Schmidt, a pass being two real matrix-vector products
    against the rows built so far.  A second pass runs only when the first
    leaves less than 1/sqrt 2 of the norm (the DGKS test of Daniel, Gragg,
    Kaufman and Stewart, Math. Comp. 30, 1976): it never fires at depth 90
    for N = 320 or 1000, and does near full depth.  Ritz operators are
    assembled one at a time from the real and imaginary parts of their
    coefficients.  Memory is that of the basis, 8 (depth + 1) d bytes: at
    N = 1000, depth 90 about 364 MB in a parity sector (the sine seed is odd;
    the run peaks at about 470 MB of RSS on 2 vCPUs) and 728 MB without one,
    against 1.46 GB for a complex basis.  ``params`` records ``sector``
    (even, odd or none), ``krylov_dim`` (the dimension reached, below
    ``depth`` when an invariant subspace closes early, which warns),
    ``matvecs`` (channel applications, including the residual checks) and
    ``reorth`` (second Gram-Schmidt passes).
    """
    if n_wanted < 1:
        raise ValueError(f"n_wanted must be >= 1, got {n_wanted}")
    if depth < n_wanted + 2:
        raise ValueError(f"depth must be at least n_wanted + 2 = {n_wanted + 2}, got {depth}")
    n = umap.dim
    entries = _operator(a0, n, "Krylov seed")
    scale = np.linalg.norm(entries)
    if not 0 < scale < np.inf:
        raise ValueError(f"Krylov seed must be finite and nonzero, got norm {scale}")
    if not np.linalg.norm(entries - entries.conj().T) <= 1e-12 * scale:
        raise ValueError("Krylov seed must be Hermitian")
    trace = abs(np.trace(entries))
    if not trace <= 1e-9 * max(1.0, scale):
        raise ValueError(f"Krylov seed must be traceless, got |Tr| = {trace:.2e}")
    # the whole recursion runs on momentum-frame operators: a unitary change
    # of frame that keeps the Hilbert-Schmidt product, Hermiticity, the
    # identity and parity (q -> -q is p -> -p), so each matvec is one step
    seed = _change_frame(np.array(entries, dtype=complex) / scale, MOMENTUM)
    mask = _mask(kernel)
    buf = _step(umap, mask, seed.copy())  # the one complex buffer of the run
    if np.linalg.norm(buf - buf.conj().T) > 1e-12 * np.linalg.norm(buf):
        raise ValueError("channel image of the Hermitian seed is not Hermitian")
    # The seed's parity sector, kept only when its image stays in it: the
    # quadratic kicks of the cat and standard maps break parity at odd N.
    sign = _parity(seed)
    sign = sign if _parity(buf) == sign else 0
    sector = _RealSector(n, sign)
    step_sign = sign if _keeps_parity(umap) else 0
    # the odd sector is traceless by construction; elsewhere every new
    # direction has its identity component projected out (see below)
    ident = (sector.pack(np.eye(n, dtype=complex) / np.sqrt(n), np.empty(sector.dim))
             if sign >= 0 else np.zeros(sector.dim))
    diag = np.flatnonzero(ident)
    ident = ident[diag]

    basis = np.empty((depth + 1, sector.dim))
    sector.pack(seed, basis[0])
    basis[0] /= np.linalg.norm(basis[0])
    del seed
    m = depth
    reorth = 0
    h = np.zeros((depth + 1, depth))
    for j in range(depth):
        if j:
            _step(umap, mask, sector.unpack(basis[j], buf), step_sign)
        w = sector.pack(buf, basis[j + 1])
        v = basis[: j + 1]
        before = np.linalg.norm(w)
        coeff = v @ w
        h[: j + 1, j] = coeff
        w -= coeff @ v
        if np.linalg.norm(w) < before / np.sqrt(2.0):
            # DGKS: a second pass only when the first cancelled most of w
            reorth += 1
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
        w /= norm
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
    op = np.empty_like(buf)
    for i in range(keep):
        # one Ritz operator at a time, each part a real product: a complex
        # coefficient vector times the real basis would cast the whole basis
        sector.unpack(vecs[:, i].real @ basis[:m], op)
        if vecs[:, i].imag.any():
            op += 1j * sector.unpack(vecs[:, i].imag @ basis[:m], buf)
        op /= np.linalg.norm(op)
        np.copyto(buf, op)
        residuals[i] = np.linalg.norm(_step(umap, mask, buf) - ritz[i] * op)
    converged = residuals < _KRYLOV_RESIDUAL_TOL
    if not converged.all():
        warnings.warn(
            f"{(~converged).sum()} of {keep} Ritz values above residual {_KRYLOV_RESIDUAL_TOL}; "
            "increase depth", stacklevel=2)
    spectrum = ResonanceSpectrum(
        alphas=ritz[:keep], method="krylov",
        params={"n": n, "epsilon": 0.0 if kernel is None else kernel.epsilon,
                "map": umap.map_spec, "depth": depth, "sector": _SECTOR_NAMES[sign],
                "krylov_dim": m, "matvecs": m + keep, "reorth": reorth},
        residuals=residuals, converged=converged, includes_identity=False)
    cluster = spectrum.leading_cluster().size
    if cluster > 1:
        warnings.warn(f"{cluster} eigenvalues within 1% modulus of the leader; "
                      "tail decays will look averaged", stacklevel=2)
    return replace(spectrum, degenerate=cluster > 1)


def fit_tail_rate(series: OtocSeries, t_start: int, t_end: int,
                  t_ehrenfest: float | None = None) -> WindowFit:
    """Least squares on ln |O1(t)|; the fit's ``alpha1`` = exp(slope/2) estimates |alpha_1|.

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
    return WindowFit(*loglinear_fit(series.t[mask], o1), (int(t_start), int(t_end)))


def spectral_o1_prediction(spectrum: ResonanceSpectrum, a: np.ndarray,
                           b: np.ndarray, t: int, terms: int | None = None) -> complex:
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
    a, b = _operator(a, n, "operator A"), _operator(b, n, "operator B")
    count = spectrum.alphas.size if terms is None else min(terms, spectrum.alphas.size)
    at = np.zeros((n, n), dtype=complex)
    for i in range(count):
        x_i = np.vdot(spectrum.lefts[i], a)
        at += x_i * spectrum.alphas[i] ** t * spectrum.rights[i]
    return complex(np.einsum("ij,jk,kl,li->", at, b, at, b) / n)
