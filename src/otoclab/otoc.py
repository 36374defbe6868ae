"""Out-of-time-ordered correlator series and the exact cat-map results.

The correlator of Hermitian A, B under a one-step propagator is

    C(t) = <[A(t), B] [A(t), B]^dag> = -2 Re[O1(t) - O2(t)]
    O1(t) = <A(t) B A(t) B>,   O2(t) = <A(t)^2 B^2>

with the infinite-temperature average <.> = Tr(.)/N.  All values reported
here carry that 1/N normalization, so O2 = 1/4 and C saturates at 1/2 for
the sine observables.  A and B are N x N complex arrays or the displacements
(q, p) of F_xi.  A(t) is evolved in the momentum frame, in the one N x N
buffer that first held B; in that frame B has K nonzero cyclic diagonals
(1 for the sine of momentum, 2 for any other F_xi, N if dense).
A(t) and B are Hermitian (the channel keeps A(t) so), hence W = A(t) B has
W^dag = B A(t) and

    O1 = Tr(W W)/N = <B A(t), A(t) B>_F / N,   O2 = ||A(t) B||_F^2 / N

with <X, Y>_F = Tr(X^dag Y).  A row of A(t) B is the same row of A(t) with
its columns shifted and scaled by B's diagonals, and a row of B A(t) a sum of
K scaled rows of A(t), so both sums run over blocks of rows in two scratch
arrays: W is never formed, and every read is along a row.  The blocks are
spread over the CPUs with :func:`~otoclab.phase_space._split`, one scratch
pair per part, and their sums are added in block order on the calling
thread, so the series does not depend on the part count.

At even N, when A and B each have a definite parity x[-i, -j] = +-x[i, j]
(F_xi is odd) and both kick phase vectors of the map are mirror-symmetric,
A(t) keeps A's parity, and the series runs in that sector: each step works
on rows 0 .. N/2 only (:func:`~otoclab.coarse_graining._step`), and the
contraction sums rows 1 .. N/2 - 1 twice and rows 0 and N/2 once, since AB
and BA have the same parity, after filling the few rows beyond N/2 that BA
reads.  The sector agrees with the full path to rounding, and its bits do not
depend on the part count either.  Every other case takes the full path.
"""

from __future__ import annotations

import numbers
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import coarse_graining
from .classical import _cat_power, cat_matrix_power
from .coarse_graining import _keeps_parity
from .maps import CAT, ClassicalMapSpec, QuantumMap, heisenberg_conjugate
from .phase_space import (_ROW_BLOCK, _SECTOR_NAMES, MOMENTUM, TorusSpace, _change_frame,
                          _cyclic_diagonals, _mirror_rows, _operator, _parity, _parts, _split,
                          _write_f, hermiticity_defect, symplectic_product)

__all__ = [
    "OtocSeries",
    "otoc_series",
    "otoc_via_commutator",
    "analytic_cat_otoc",
    "otoc_family_linear",
    "fit_lyapunov_from_otoc",
    "fit_growth",
    "loglinear_fit",
    "WindowFit",
]

_HERMITIAN_TOL = 1e-10
_DIAG_TOL = 1e-12
_COMMUTATOR_LIMIT = 64


@dataclass(frozen=True, eq=False)
class OtocSeries:
    """Per-step record of C(t), O1(t), O2(t); ``sector`` is the parity sector the series
    ran in (odd, even, or none for the full path)."""

    t: np.ndarray
    c: np.ndarray
    o1: np.ndarray
    o2: np.ndarray
    sector: str = "none"

    @property
    def o1_abs(self) -> np.ndarray:
        return np.abs(self.o1)


def otoc_series(umap: QuantumMap, a: np.ndarray | tuple[int, int],
                b: np.ndarray | tuple[int, int], t_max: int,
                kernel: "coarse_graining.CoarseGrainKernel | None" = None) -> OtocSeries:
    """Compute C(t), O1(t), O2(t) for t = 0 .. t_max, with A(t) advanced by
    the channel of ``kernel`` (unitarily when None).

    ``a`` and ``b`` are each a Hermitian N x N array or an integer
    displacement (xi_q, xi_p) standing for F_xi.  O1 = <B A(t), A(t) B>_F / N
    and O2 = ||A(t) B||_F^2 / N are summed over blocks of rows.  The call
    holds one N x N array: B is written into it, checked and changed to the
    momentum frame, where its nonzero cyclic diagonals are gathered; A is then
    written over it, checked, and evolved there in place.  Beside it the
    contraction holds two 16-row blocks of AB and BA per part, at most N / 256
    parts (:func:`~otoclab.phase_space._parts`), so at most N^2 / 8 entries.
    The parity sector (see the module notes) is picked from the data, and
    recorded as ``sector``.
    """
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    buffer = np.empty((umap.dim, umap.dim), dtype=complex)
    _fill(umap.space, b, buffer, "B")
    b_sign = _sign(b, buffer) if _keeps_parity(umap) else 0
    shifts, d = _nonzero_diagonals(_change_frame(buffer, MOMENTUM))
    _fill(umap.space, a, buffer, "A")
    sign = _sign(a, buffer) if b_sign else 0
    # one ab/ba pair per part, zeroed, so a zero B (no diagonals) gives O1 = O2 = 0
    scratch = [np.zeros((2, min(_ROW_BLOCK, umap.dim), umap.dim), dtype=complex)
               for _ in _parts(umap.dim, _ROW_BLOCK)]
    o1 = np.empty(t_max + 1, dtype=complex)
    o2 = np.empty(t_max + 1)
    for t, at in enumerate(coarse_graining._evolve_in_place(umap, kernel, buffer, t_max, sign)):
        o1[t], o2[t] = _contract(at, shifts, d, scratch, sign)
    c = -2.0 * (o1 - o2).real
    return OtocSeries(np.arange(t_max + 1), c, o1, o2, _SECTOR_NAMES[sign])


def _fill(space: TorusSpace, op: np.ndarray | tuple[int, int], out: np.ndarray,
          name: str) -> np.ndarray:
    """Position-basis entries of ``op``, an N x N array or the integer displacement
    (q, p) of F_xi, written into ``out`` and checked to be Hermitian, NaN refused."""
    if np.shape(op) == (2,):
        if not all(isinstance(x, numbers.Integral)
                   or (isinstance(x, numbers.Real) and float(x).is_integer()) for x in op):
            raise ValueError(f"operator {name} displacement must be two integers, got {op}")
        out.fill(0)
        _write_f(space, op, out)
    else:
        np.copyto(out, _operator(op, space.dim, f"operator {name}"))
    defect = hermiticity_defect(out)
    if not defect <= _HERMITIAN_TOL:
        raise ValueError(f"operator {name} is not Hermitian (defect {defect:.2e})")
    return out


def _sign(op: np.ndarray | tuple[int, int], filled: np.ndarray) -> int:
    """Parity of ``op``, whose entries ``filled`` holds: F_xi is odd, an array is scanned."""
    return -1 if np.shape(op) == (2,) else _parity(filled)


def _nonzero_diagonals(bm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shifts j and rows d[k, q] = bm[q + j_k, q] of the cyclic diagonals that are not noise,
    found a block of diagonals at a time so no N x N gather is made."""
    n = bm.shape[0]
    blocks = (range(j, min(j + _ROW_BLOCK, n)) for j in range(0, n, _ROW_BLOCK))
    size = np.concatenate([np.abs(_cyclic_diagonals(bm, js)).max(axis=1) for js in blocks])
    shifts = np.flatnonzero(size > _DIAG_TOL * max(size.max(), 1.0))
    return shifts, _cyclic_diagonals(bm, shifts)


def _wrapped(start: int, m: int, n: int) -> list[tuple[slice, slice]]:
    """(destination, source) slice pairs that read indices start .. start + m - 1 mod n."""
    start %= n
    head = min(m, n - start)
    pairs = [(slice(0, head), slice(start, start + head))]
    return pairs + [(slice(head, m), slice(0, m - head))] if head < m else pairs


def _axpy(first: bool, out: np.ndarray, x: np.ndarray, scale: np.ndarray) -> None:
    if first:
        np.multiply(x, scale, out=out)
    else:
        out += x * scale


def _contract(at: np.ndarray, shifts: np.ndarray, d: np.ndarray,
              scratch: list[np.ndarray], sign: int = 0) -> tuple[complex, float]:
    """O1 = <BA, AB>_F / N and O2 = ||AB||_F^2 / N of momentum-frame A(t) against
    B's cyclic diagonals, a block of rows of AB and BA at a time.

    The blocks are spread over the parts of :func:`~otoclab.phase_space._split`,
    part i holding its blocks of AB and BA in ``scratch[i]``.  The per-block
    sums come back and are added here in block order, so the bits depend on
    neither the part count nor the BLAS thread count: every sum is a ufunc or
    einsum reduction.  With A(t)'s parity ``sign`` only rows 0 .. N/2 of A(t)
    are valid: the rows beyond that BA reads are filled from their mirrors,
    and row r of AB and BA is row -r up to one common sign, so rows
    1 .. N/2 - 1 are summed and doubled, and rows 0 and N/2 added once.
    """
    n = at.shape[0]
    h = n // 2
    if sign:
        for rows in _mirrored_rows(shifts, n):
            _mirror_rows(at, rows, sign)
    start, stop = (1, h) if sign else (0, n)
    o1, o2 = 0j, 0.0
    for part in _split(lambda i, s: _contract_rows(at, shifts, d, *scratch[i],
                                                   slice(start + s.start, start + s.stop)),
                       n, _ROW_BLOCK, stop - start):
        for b1, b2 in part:
            o1 += b1
            o2 += b2
    if sign:
        o1, o2 = 2 * o1, 2 * o2
        for r in (0, h):
            ((b1, b2),) = _contract_rows(at, shifts, d, *scratch[0], slice(r, r + 1))
            o1 += b1
            o2 += b2
    return o1 / n, o2 / n


def _mirrored_rows(shifts: np.ndarray, n: int) -> list[slice]:
    """The rows beyond N/2 that rows 0 .. N/2 of BA read, (r - j) % N for B's shifts j,
    as at most two runs: N/2 + 1 .. N/2 + N - j for j > N/2, and max(N - j, N/2 + 1)
    .. N - 1 for 0 < j <= N/2.  None for B diagonal in momentum (shift 0 only)."""
    h = n // 2
    below = h + 1 + max((n - j for j in shifts if j > h), default=0)
    above = n - max((min(j, h - 1) for j in shifts if 0 < j <= h), default=0)
    runs = [slice(h + 1, n)] if below >= above else [slice(h + 1, below), slice(above, n)]
    return [s for s in runs if s.start < s.stop]


def _contract_rows(at: np.ndarray, shifts: np.ndarray, d: np.ndarray, ab: np.ndarray,
                   ba: np.ndarray, rows: slice) -> list[tuple[complex, float]]:
    """(O1, O2) partial sums, unscaled, of each block of ``rows`` in ``ab`` and ``ba``."""
    n = at.shape[0]
    sums = []
    for i in range(rows.start, rows.stop, ab.shape[0]):
        x, y = ab[:rows.stop - i], ba[:rows.stop - i]
        m = x.shape[0]
        for k, j in enumerate(shifts):
            for dst, src in _wrapped(j, n, n):  # AB[r, q] = sum_j A[r, q + j] d[j, q]
                _axpy(k == 0, x[:, dst], at[i:i + m, src], d[k, dst])
            for dst, src in _wrapped(i - j, m, n):  # BA[r, :] = sum_j d[j, r - j] A[r - j, :]
                _axpy(k == 0, y[dst], at[src], d[k, src, None])
        xv = x.view(float)
        np.conjugate(y, out=y)
        y *= x
        sums.append((y.sum(), np.einsum("ij,ij->", xv, xv)))
    return sums


def otoc_via_commutator(umap: QuantumMap, a: np.ndarray, b: np.ndarray,
                        t_max: int, kernel=None) -> np.ndarray:
    """Slow-path oracle: C(t) from the materialized commutator.

    Evaluates Tr([A(t), B][A(t), B]^dag)/N with dense products, independent
    of the O1/O2 decomposition.  Cost O(N^3) per step, refused above N = 64.
    """
    if umap.dim > _COMMUTATOR_LIMIT:
        raise ValueError(f"commutator oracle is O(N^3) per step; refused above N={_COMMUTATOR_LIMIT}")
    b = _operator(b, umap.dim, "operator B")
    at = _operator(a, umap.dim, "operator A").copy()
    dephase = kernel is not None and kernel.epsilon > 0
    c = np.empty(t_max + 1)
    for t in range(t_max + 1):
        comm = at @ b - b @ at
        c[t] = np.einsum("ij,ij->", comm, comm.conj()).real / umap.dim
        if t < t_max:
            at = heisenberg_conjugate(umap, at)
            if dephase:
                at = coarse_graining.apply_dephasing_chord(kernel, at)
    return c


class CatOtocPoint(NamedTuple):
    c: float
    o1: float
    o2: float


def analytic_cat_otoc(t: int, n: int) -> CatOtocPoint:
    """Closed-form OTOC of the unperturbed cat map for the sine pair.

    C(t) = sin^2(pi a_t / N), O1(t) = cos(2 pi a_t / N)/4, O2 = 1/4, where
    a_t is the top-left integer entry of the t-th cat matrix power, computed
    mod N in O(log t) so large t stays exact.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if n < 2:
        raise ValueError("n must be >= 2")
    angle = np.pi * _cat_power(t, n)[0] / n
    c = float(np.sin(angle) ** 2)
    o1 = float(np.cos(2 * angle) / 4.0)
    return CatOtocPoint(c, o1, 0.25)


def otoc_family_linear(xi, chi, t: int, n: int,
                       map_spec: ClassicalMapSpec | None = None) -> float:
    """Exact OTOC sin^2(pi <M^t xi, chi> / N) of the unperturbed cat map.

    Valid for the linear (k = 0) cat map only; the symplectic product is
    taken with exact integers and reduced mod N inside the sine.  This
    quantization realizes the translation covariance with q and p mirrored,
    so the matching numerical correlator evolves F_(xi_p, xi_q) against the
    static F_(chi_p, chi_q); the sine pair (1,0)/(0,1) is mirror-fixed.
    """
    if map_spec is not None and (map_spec.kind != CAT or map_spec.k != 0.0):
        raise ValueError("the closed-form translation OTOC only holds for the k=0 cat map")
    image = cat_matrix_power(t).apply(xi)
    s = symplectic_product(image, chi) % n
    return float(np.sin(np.pi * s / n) ** 2)


@dataclass(frozen=True)
class WindowFit:
    """A :func:`loglinear_fit` over a closed window; alpha1 = exp(slope/2) fits |O1| tails."""

    slope: float
    intercept: float
    r2: float
    window: tuple[int, int]

    @property
    def alpha1(self) -> float:
        return float(np.exp(self.slope / 2.0))


def loglinear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line through (x, ln y); returns slope, intercept, R^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points to fit")
    if np.any(y <= 0):
        raise ValueError("values must be strictly positive for a log-linear fit")
    logy = np.log(y)
    slope, intercept = np.polyfit(x, logy, 1)
    resid = logy - (slope * x + intercept)
    total = logy - logy.mean()
    denom = float(total @ total)
    r2 = 1.0 if denom == 0.0 else 1.0 - float(resid @ resid) / denom
    return float(slope), float(intercept), r2


def fit_growth(series: OtocSeries, window: tuple[int, int]) -> WindowFit:
    """Log-linear fit of C(t) over [window[0], window[1]], lambda = slope / 2; any
    start, 0 included, is accepted.  Warns when R^2 < 0.98."""
    lo, hi = int(window[0]), int(window[1])
    mask = (series.t >= lo) & (series.t <= hi)
    slope, intercept, r2 = loglinear_fit(series.t[mask], series.c[mask])
    if r2 < 0.98:  # blame the nearest caller outside this module
        warnings.warn(f"Lyapunov fit R^2 = {r2:.4f} below 0.98; window may span a regime change",
                      stacklevel=2 if sys._getframe(1).f_globals.get("__name__") != __name__ else 3)
    return WindowFit(slope, intercept, r2, (lo, hi))


def fit_lyapunov_from_otoc(series: OtocSeries, window: tuple[int, int],
                           t_ehrenfest: float | None = None) -> float:
    """Half the :func:`fit_growth` slope of C(t) over [window[0], window[1]].

    Warns when the fit quality drops below R^2 = 0.98.  When the Ehrenfest
    time is supplied the window is checked against [1, t_E - 1]; a window of
    fewer than two samples, or one where C(t) is not positive, raises in
    :func:`loglinear_fit`.
    """
    lo, hi = int(window[0]), int(window[1])
    if lo < 1:
        raise ValueError("growth-rate window must start at t >= 1")
    if t_ehrenfest is not None and hi > t_ehrenfest - 1:
        raise ValueError(f"window end {hi} exceeds the growth regime bound {t_ehrenfest - 1:.2f}")
    return 0.5 * fit_growth(series, (lo, hi)).slope
