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
from .otoc import OtocSeries, WindowFit, _fill, _operand, _window, loglinear_fit
from .phase_space import (_ROW_BLOCK, MOMENTUM, TorusSpace, _change_frame, _count,
                          _hermitian, _operator, _scratch, _sector, _working)

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
# basis columns a block of the one-pass Ritz assembly reads: 2048-4096 ran alike at
# N = 320 and 1000, depth 90 (2 vCPUs)
_RITZ_COLUMNS = 4096


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
    """Seeded random Hermitian operator with the trace projected out; ``seed`` is a
    non-negative integer (:func:`~otoclab.phase_space._count`).

    The bits of (G + G^dag) / 2 - Tr / N, G = X + iY of two N x N standard normal
    draws, built in the one array it returns: the draws a row at a time, the
    symmetrization a strip of rows and the columns beneath it at a time."""
    rng = np.random.default_rng(_count(seed, "seed"))
    n = space.dim
    h = np.empty((n, n), dtype=complex)
    for row in (*h.real, *h.imag):
        row[...] = rng.standard_normal(n)
    for i in range(0, n, _ROW_BLOCK):
        s = slice(i, i + _ROW_BLOCK)
        sym = (h[s, i:] + h[i:, s].conj().T) / 2.0
        h[s, i:], h[i:, s] = sym, sym.T.conj()
    h.flat[::n + 1] -= np.trace(h) / n
    return h


class _RealSector:
    """Real coordinates of the Hermitian operators in the odd parity sector, or of all.

    An operator A is held as R = Re Z, Z = (1 - i)A (see :mod:`~otoclab.phase_space`),
    with Tr(A^dag B) = R_A . R_B.  In the ``odd`` sector A[-i, -j] = -A[i, j]:
    one entry per mirror pair, scaled by sqrt 2 to keep that product, is kept in flat
    order, in the lines of :func:`~otoclab.phase_space._sector`: row 0 on the paired
    columns, the paired rows whole, the other fixed rows on the paired columns; the
    entries whose row and column are both fixed are their own mirrors, so zero.
    Without it all of R is kept, unscaled.  :meth:`pack` reads and :meth:`write` writes
    the sector's rows 0 .. N/2, all that the sector step holds, R throughout;
    :meth:`unpack` writes every entry of Z for the full step.
    """

    def __init__(self, n: int, odd: bool):
        self.n = n
        self._rows, self._paired, self._fixed = _sector(n, odd)
        # (rows, columns) of R in coordinate order, one entry of each mirror pair
        views = ([(slice(0, 1), self._paired), (self._paired, slice(None)),
                  (slice(self._paired.stop, self._rows), self._paired)]
                 if odd else [(slice(None), slice(None))])
        sizes = [len(range(n)[rows]) * len(range(n)[cols]) for rows, cols in views]
        edges = np.cumsum([0] + sizes)
        self._views = [(v, slice(lo, hi)) for v, lo, hi in zip(views, edges, edges[1:])]
        self.dim = int(edges[-1])
        self._scale = np.sqrt(2.0) if odd else 1.0

    def pack(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The coordinates of the real R into ``out``."""
        for v, seg in self._views:
            np.multiply(r[v], self._scale, out=out[seg].reshape(r[v].shape))
        return out

    def write(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Rows 0 .. N/2 of R from the sector coordinates ``x`` into the real ``r``, which
        holds them; any other rows are left."""
        for v, seg in self._views:
            np.divide(x[seg].reshape(r[v].shape), self._scale, out=r[v])
        rows = self._fixed
        r[rows, rows] = 0
        # the self-mirrored rows are their own mirrors: r[i, -c] = -r[i, c]
        np.multiply(r[rows, self._paired][:, ::-1], -1, out=r[rows, self._rows:])
        return r

    def unpack(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Z = R - iR^T from the coordinates ``x`` that keep all of R, into every entry
        of the complex ``out``."""
        r = x.reshape(self.n, self.n)
        np.copyto(out.real, r)
        np.negative(r.T, out=out.imag)
        return out


def krylov_leading(umap: QuantumMap, kernel: CoarseGrainKernel | None,
                   a0: np.ndarray | tuple[int, int] | int, depth: int = 40,
                   n_wanted: int = 5) -> ResonanceSpectrum:
    """Leading channel eigenvalues by Arnoldi iteration in operator space.

    Orthonormalizes the forward orbit of a traceless Hermitian seed in the
    Hilbert-Schmidt product against every earlier direction (the channel is not
    normal) and returns the Ritz values of largest modulus, each with its residual
    ||S X - alpha X|| / ||X||; one above 1e-4 is marked unconverged.  Deterministic
    given the seed and the BLAS thread count.  ``a0`` is an N x N array, a
    displacement (xi_q, xi_p) standing for F_xi ((0, 1): the sine seed) or an integer
    seed standing for :func:`random_traceless_hermitian` of that seed.  It must be
    finite and nonzero, Hermitian as an operand of :func:`~otoclab.otoc.otoc_series`
    (:func:`~otoclab.otoc._operand`) and traceless.

    The seed is set up as ``otoc_series`` sets up A: Z = (1 - i)A is written into the
    run's one working array (:func:`~otoclab.otoc._fill`), with no copy of an array
    seed, and changed to the momentum frame, where the recursion runs.  A direction
    is stored as the real coordinates of :class:`_RealSector`: one entry per mirror
    pair in the odd sector when the seed is odd and the channel keeps parity
    (:func:`~otoclab.coarse_graining._keeps_parity`), else every entry of R = Re Z,
    where each new direction loses its identity component, R's diagonal.
    Every channel application, the first included, is one matvec: R is written into
    the array (:func:`~otoclab.phase_space._working`, in the sector R on rows 0 .. N/2),
    takes one :func:`~otoclab.coarse_graining._step`, the step ``evolve`` and
    ``otoc_series`` call in their loops, whose sector kicks use a pair of 16-row
    blocks a part, and is packed.  A first full-step image that is not
    Hermitian (:func:`~otoclab.phase_space._hermitian`) raises.  Classical
    Gram-Schmidt orthogonalizes each image, with a second pass only when the first
    leaves less than 1/sqrt 2 of the norm (DGKS: Daniel, Gragg, Kaufman and Stewart,
    Math. Comp. 30, 1976).

    The coordinates x and y of a Ritz vector X + iY (X, Y Hermitian) come from one
    pass over the basis into its first rows; a listed conjugate partner X - iY gets
    its pair's residual.  With alpha = a + ib the residual is ||(Sx - ax + by, Sy -
    ay - bx)|| / ||(x, y)||, as the coordinates keep the Hilbert-Schmidt product
    (Saad, Numerical Methods for Large Eigenvalue Problems, 2nd ed., ch. 6): one
    matvec for a real Ritz value and two for a complex one.  No N x N array is held
    beside the working array and the basis, 8 (depth + 1) d bytes, d the sector
    dimension.
    ``params`` records ``sector`` (odd or none), ``krylov_dim`` (the dimension m
    reached, below ``depth`` when an invariant subspace closes early, which warns),
    ``matvecs`` (m plus the residual matvecs) and ``reorth`` (second Gram-Schmidt
    passes).
    """
    depth, n_wanted = _count(depth, "depth"), _count(n_wanted, "n_wanted", 1)
    if depth < n_wanted + 2:
        raise ValueError(f"depth must be at least n_wanted + 2 = {n_wanted + 2}, got {depth}")
    space, n = umap.space, umap.dim
    if isinstance(a0, (int, np.integer)):  # a seed, drawn into an array of this call's own
        a0 = random_traceless_hermitian(space, _count(a0, "Krylov seed"))
    elif np.shape(a0) != (2,):  # NaN and inf are refused before the Hermiticity rule
        a0 = _operator(a0, n, "operator Krylov seed")
        _seed_norm(np.linalg.norm(a0))
    a0, odd, _ = _operand(space, a0, "Krylov seed", _keeps_parity(umap))
    sector = _RealSector(n, odd)
    buf = _working(n, odd)  # the one working array of the run, which holds Z = (1 - i)A
    _fill(space, a0, buf)
    del a0  # a drawn seed or a complex copy of a real array is not kept
    # the momentum frame keeps the Hilbert-Schmidt product, Hermiticity and parity
    _change_frame(buf, MOMENTUM)
    mask, scratch = _mask(kernel), _scratch(n) if odd else None
    # the odd sector is traceless by construction; on the full path every new
    # direction has its identity component projected out (see below): R of the
    # identity is the identity, whose coordinates are R's diagonal
    diag = np.arange(sector.dim if odd else 0, sector.dim, n + 1)
    ident = np.full(diag.size, 1 / np.sqrt(n))

    basis = np.empty((depth + 1, sector.dim))
    scale = _seed_norm(np.linalg.norm(sector.pack(buf.real, basis[0])))
    trace = np.sqrt(n) * abs(ident @ basis[0, diag])
    if not trace <= 1e-9 * max(1.0, scale):
        raise ValueError(f"Krylov seed must be traceless, got |Tr| = {trace:.2e}")
    basis[0] /= scale

    def matvec(x, out):
        """S(A) into the buffer, and its coordinates into ``out``, A's coordinates ``x``."""
        if odd:  # the sector step reads and writes R = Re Z on rows 0 .. N/2
            sector.write(x, buf)
            image = _step(umap, mask, buf, scratch)
        else:
            image = _step(umap, mask, sector.unpack(x, buf))
        sector.pack(image.real, out)
        return image

    m, reorth = depth, 0
    h = np.zeros((depth + 1, depth))
    for j in range(depth):
        image, w = matvec(basis[j], basis[j + 1]), basis[j + 1]
        if not (odd or j or _hermitian(image)):  # only a full step's image holds Im Z
            raise ValueError("channel image of the Hermitian seed is not Hermitian")
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
    # Real rows of coefficients of x and y, the real and imaginary parts of each kept
    # Ritz vector (a complex row would cast the basis whole), none for a conjugate
    # partner, which gets its pair's residual: at most m rows, applied in one pass over
    # the basis, a block of columns at a time, through row m into its first rows.
    partner = [next((k for k in range(i) if ritz[k] == ritz[i].conjugate()
                     and np.array_equal(vecs[:, k], vecs[:, i].conj())), None)
               for i in range(keep)]
    coeffs = np.array([part for i in range(keep) if partner[i] is None
                       for part in (vecs[:, i].real, vecs[:, i].imag)[:1 + bool(ritz[i].imag)]])
    width = min(_RITZ_COLUMNS, sector.dim // len(coeffs))
    products = basis[m, :len(coeffs) * width].reshape(len(coeffs), width)
    for c in range(0, sector.dim, width):
        block = basis[:m, c:c + width]
        out = products[:, :block.shape[1]]
        np.matmul(coeffs, block, out=out)
        block[:len(coeffs)] = out
    spare, row = basis[m], 0
    residuals = np.empty(keep)
    for i in range(keep):
        if partner[i] is not None:
            residuals[i] = residuals[partner[i]]
            continue
        a, b = ritz[i].real, ritz[i].imag
        parts = basis[row:row + (2 if b else 1)]
        squares = 0.0
        for k, u in enumerate(parts):  # Sx - ax + by, then Sy - ay - bx, in row m
            matvec(u, spare)
            spare -= a * u
            if b:
                spare += (b, -b)[k] * parts[1 - k]
            squares += np.linalg.norm(spare) ** 2
        residuals[i] = np.sqrt(squares) / np.linalg.norm(parts)
        row += len(parts)
    converged = residuals < _KRYLOV_RESIDUAL_TOL
    if not converged.all():
        warnings.warn(
            f"{(~converged).sum()} of {keep} Ritz values above residual {_KRYLOV_RESIDUAL_TOL}; "
            "increase depth", stacklevel=2)
    spectrum = ResonanceSpectrum(
        alphas=ritz[:keep], method="krylov",
        params={"n": n, "epsilon": 0.0 if kernel is None else kernel.epsilon,
                "map": umap.map_spec, "depth": depth, "sector": "odd" if odd else "none",
                "krylov_dim": m, "matvecs": m + row, "reorth": reorth},
        residuals=residuals, converged=converged, includes_identity=False)
    cluster = spectrum.leading_cluster().size
    if cluster > 1:
        warnings.warn(f"{cluster} eigenvalues within 1% modulus of the leader; "
                      "tail decays will look averaged", stacklevel=2)
    return replace(spectrum, degenerate=cluster > 1)


def _seed_norm(norm: float) -> float:
    """The Hilbert-Schmidt norm of a Krylov seed, refused unless finite and nonzero."""
    if not 0 < norm < np.inf:
        raise ValueError(f"Krylov seed must be finite and nonzero, got norm {norm}")
    return norm


def fit_tail_rate(series: OtocSeries, t_start: int, t_end: int,
                  t_ehrenfest: float | None = None) -> WindowFit:
    """Least squares on ln |O1(t)|; the fit's ``alpha1`` = exp(slope/2) estimates |alpha_1|.

    ``t_start`` and ``t_end`` are non-negative integers, ``t_end`` at most the series'
    last step, and the window holds at least four samples
    (:func:`~otoclab.otoc._window`); when the Ehrenfest time is supplied it must start
    at or beyond it (the growth regime would bias the slope).  Warns when |O1| dips to
    the numerical trace floor inside the window, where the fit degrades into noise.
    """
    t_start, t_end, mask = _window(series, (t_start, t_end), ("t_start", "t_end"), least=4)
    if t_ehrenfest is not None and t_start < np.ceil(t_ehrenfest):
        raise ValueError(f"tail window must start at or after ceil(t_E) = {np.ceil(t_ehrenfest):.0f}")
    o1 = series.o1_abs[mask]
    if o1.min() < 1e-13:
        warnings.warn("|O1| reached the numerical floor inside the fit window", stacklevel=2)
    return WindowFit(*loglinear_fit(series.t[mask], o1), (t_start, t_end))


def spectral_o1_prediction(spectrum: ResonanceSpectrum, a: np.ndarray,
                           b: np.ndarray, t: int, terms: int | None = None) -> complex:
    """O1(t) predicted from the spectral decomposition of the channel.

    Expands A over right eigenoperators with coefficients x_i = Tr(L_i^dag A),
    evolves each term as alpha_i^t, and evaluates Tr(A(t) B A(t) B)/N.  With
    ``terms`` the expansion is truncated to that many leading eigenvalues;
    the identity direction contributes x_0 = Tr(A)/N = 0 for traceless A, so
    ``terms=2`` isolates the leading resonance.  ``t`` is a non-negative integer
    (:func:`~otoclab.phase_space._count`).
    """
    t = _count(t, "t")
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
