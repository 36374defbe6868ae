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
arrays: W is never formed, and every read is along a row.  For K = 1 at shift
0, B = diag(d), both sums are weighted sums of |A(t)|^2 and come from one pass
over it.  The blocks run in parts (:func:`~otoclab.phase_space._split`), one
scratch pair a part, and their sums are added in block order, so the series
does not depend on the part count.

The buffer holds Z = (1 - i)A(t), on the full path as in the parity sector
(see :mod:`~otoclab.phase_space`), and B's diagonals are read from R = Re Z
of its momentum-frame (1 - i)B.  For B diagonal the one-pass sums read R
alone, as |A_rc|^2 = (R_rc^2 + R_cr^2) / 2; any other B sums blocks of ZB and
BZ, and |1 - i|^2 = 2 divides both sums.  When A and B are both parity odd,
x[-i, -j] = -x[i, j], as every F_xi is, and the channel keeps parity
(:func:`~otoclab.coarse_graining._keeps_parity`), A(t) stays odd and the
series runs in the odd sector: the buffer is the sector's real R on rows
0 .. N/2, B and A are written there alone, every step works on it
(:func:`~otoclab.coarse_graining._step`), and the contraction sums the paired
rows twice and the self-mirrored rows once
(:func:`~otoclab.phase_space._sector`), since AB and BA have the same parity;
the blocks form builds the rows of Z it reads from R, which the buffer holds
throughout.  The sector agrees with the full path to rounding.  Every other
case, a parity-even operand among them, takes the full path.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import coarse_graining
from .classical import _cat_power
from .coarse_graining import _keeps_parity, _mask, _step
from .maps import CAT, ClassicalMapSpec, QuantumMap, heisenberg_conjugate
from .phase_space import (_ROW_BLOCK, MOMENTUM, TorusSpace, _change_frame, _count,
                          _displacement, _f_defect, _finite, _odd, _operator, _scratch,
                          _sector, _size, _spare, _split, _whole_rows, _working,
                          _write_f, _z_rows, hermiticity_defect, symplectic_product)

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
# rows of N reals a block of the one-pass contraction squares, in a part's scratch
# pair of 16-row complex blocks
_SQUARE_BLOCK = 2 * _ROW_BLOCK


@dataclass(frozen=True, eq=False)
class OtocSeries:
    """Per-step record of C(t), O1(t), O2(t) and the path the series took: ``sector``
    is the parity sector it ran in (odd, or none for the full path), ``layout``
    the working buffer's rows (padded or plain, then the entries a row holds) and
    ``contraction`` the form of the O1/O2 sums (diagonal or blocks)."""

    t: np.ndarray
    c: np.ndarray
    o1: np.ndarray
    o2: np.ndarray
    sector: str = "none"
    layout: str = "plain"
    contraction: str = "blocks"

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
    and O2 = ||A(t) B||_F^2 / N are summed over blocks of rows, or from one pass
    over |A(t)|^2 when B is diagonal in the momentum frame, as F_(q,0) is
    (:func:`_contract`).  B, then A, is checked (:func:`_operand`) before
    anything is written, and the parity sector (see the module notes) is picked
    from the two and recorded as ``sector``.  The call holds one working array
    (:func:`~otoclab.phase_space._working`), 16 N^2 bytes on the full path and 8 N^2
    in the sector: (1 - i)B is written into it (:func:`_fill`) and changed to the
    momentum frame, where its nonzero cyclic diagonals are gathered (for F_(q,p),
    which is F_(p,-q) there, only +-p); (1 - i)A is then written over it, changed to
    the momentum frame once and advanced in place by
    :func:`~otoclab.coarse_graining._step` between contractions.  Beside it each
    part, at most N / 256 of them (:func:`~otoclab.phase_space._parts`), holds two
    16-row blocks of AB and BA, which a sector step's kicks reuse, so at most N^2 / 8
    entries.  ``layout`` and
    ``contraction`` record the buffer's rows and the contraction's form.
    """
    t_max = _count(t_max, "t_max")
    space, n = umap.space, umap.dim
    b, b_odd, b_shifts = _operand(space, b, "B", _keeps_parity(umap))
    a, odd, _ = _operand(space, a, "A", b_odd)  # B's set-up takes the run's path
    buffer = _working(n, odd)
    _fill(space, b, buffer)
    shifts, d = _nonzero_diagonals(_change_frame(buffer, MOMENTUM), b_shifts)
    _fill(space, a, buffer)
    del a, b  # a complex copy of a real or integer array operand is not kept
    scratch = _scratch(n)  # an ab/ba pair per part
    o1 = np.empty(t_max + 1, dtype=complex)
    o2 = np.empty(t_max + 1)
    mask = _mask(kernel)
    o1[0], o2[0] = _contract(_change_frame(buffer, MOMENTUM), shifts, d, scratch)
    for t in range(1, t_max + 1):
        o1[t], o2[t] = _contract(_step(umap, mask, buffer, scratch), shifts, d, scratch)
    c = -2.0 * (o1 - o2).real
    width = _whole_rows(buffer).shape[1]
    layout = f"{'padded' if width > n else 'plain'} {width}"
    return OtocSeries(np.arange(t_max + 1), c, o1, o2, "odd" if odd else "none", layout,
                      _contraction(shifts))


def _operand(space: TorusSpace, op: np.ndarray | tuple[int, int], name: str, parity: bool
             ) -> tuple[np.ndarray | tuple[int, int], bool, list[int] | None]:
    """``op``, an N x N array or the integer displacement (q, p) of F_xi, checked to be
    Hermitian (NaN refused) before anything is written, as (op, odd, shifts).

    ``op`` comes back as two ints or as a complex array.  ``odd``, the odd sector, holds
    when ``parity`` asks for it and ``op`` is odd: F_xi is odd,
    F_xi[-i, -j] = -F_xi[i, j], and only when asked is an array scanned.  ``shifts``
    are the momentum-frame cyclic diagonals where ``op`` can be nonzero: +-p for
    F_(q,p), as F^dag F_(q,p) F = F_(p,-q), and None, every diagonal, for an array.
    An array is checked whole; F_xi on its two cyclic diagonals +-q, off which every
    entry is zero, computed in O(N)."""
    if np.shape(op) == (2,):
        q, p = _displacement(op, f"operator {name} displacement")
        _check_hermitian(_f_defect(space, (q, p)), name)
        return (q, p), parity, sorted({p % space.dim, -p % space.dim})
    op = _operator(op, space.dim, f"operator {name}")
    _check_hermitian(hermiticity_defect(op), name)
    return op, parity and _odd(op), None


def _fill(space: TorusSpace, op: np.ndarray | tuple[int, int], out: np.ndarray) -> None:
    """Write Z = (1 - i)op, ``op`` a checked N x N array or displacement (:func:`_operand`)
    in the position basis, into the working array ``out``: all of Z into a complex one,
    or the odd sector's R = Re Z on rows 0 .. N/2 into a real one, with Z's bits; F_xi
    as its two cyclic diagonals, scaled (``_write_f``)."""
    rows, odd = out.shape[0], np.isrealobj(out)
    if isinstance(op, tuple):
        out[...] = 0
        part = np.real if odd else np.asarray
        _write_f(space, op, out, rows, lambda v: part(v * (1 - 1j)))
    elif odd:
        np.add(op.real[:rows], op.imag[:rows], out=out)
    else:
        np.multiply(op, 1 - 1j, out=out)


def _check_hermitian(defect: float, name: str) -> None:
    if not defect <= _HERMITIAN_TOL:
        raise ValueError(f"operator {name} is not Hermitian (defect {defect:.2e})")


def _nonzero_diagonals(zm: np.ndarray, candidates: list[int] | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Shifts j and rows d[k, q] = B[q + j_k, q] of the cyclic diagonals of momentum-frame
    B that are not noise, among the shifts ``candidates`` (ascending, every diagonal when
    None), found a block of diagonals at a time so no N x N gather is made.  ``zm`` holds
    Z = (1 - i)B, or, real, the odd sector's R (:func:`_real_diagonals`)."""
    j = np.arange(zm.shape[1]) if candidates is None else np.asarray(candidates)

    def blocks(js):
        return (_real_diagonals(zm, b)
                for b in np.split(js, range(_ROW_BLOCK, js.size, _ROW_BLOCK)))

    size = np.concatenate([np.abs(b).max(axis=1) for b in blocks(j)])
    shifts = j[size > _DIAG_TOL * max(size.max(), 1.0)]
    return shifts, np.concatenate(list(blocks(shifts)))


def _real_diagonals(x: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """d[k, q] = B[q + j_k, q] of a Hermitian B from R = Re Z, Z = (1 - i)B, in x: B =
    S + iK with S = (R + R^T) / 2 and K = (R - R^T) / 2.  For an odd B x may hold R on
    rows 0 .. N/2 only, and a row r beyond the held rows is read as R[r, c] =
    -R[N - r, -c]."""
    n = x.shape[1]
    r = x.real
    q = np.arange(n)
    rows = (q[None, :] + np.asarray(shifts)[:, None]) % n
    cols = np.broadcast_to(q, rows.shape)

    def read(i, j):
        far = i >= x.shape[0]
        v = r[np.where(far, n - i, i), np.where(far, -j % n, j)]
        return np.where(far, -v, v)

    here, transposed = read(rows, cols), read(cols, rows)  # R[q + j, q] and R[q, q + j]
    d = np.empty(rows.shape, dtype=complex)
    d.real, d.imag = (here + transposed) / 2, (here - transposed) / 2
    return d


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


def _contraction(shifts: np.ndarray) -> str:
    """The form of :func:`_contract` for B's momentum-frame ``shifts``: "diagonal" for
    the one cyclic diagonal at shift 0, "blocks" otherwise."""
    return "diagonal" if shifts.size == 1 and shifts[0] == 0 else "blocks"


def _contract(at: np.ndarray, shifts: np.ndarray, d: np.ndarray,
              scratch: list[np.ndarray]) -> tuple[complex, float]:
    """O1 = <BA, AB>_F / N and O2 = ||AB||_F^2 / N of momentum-frame A(t), held as Z =
    (1 - i)A(t) in ``at``, against B's cyclic diagonals, a block of rows at a time.

    For B diagonal, B = diag(d) (:func:`_contraction`), O1 = sum conj(d_r) d_q |A_rq|^2
    and O2 = sum |d_q|^2 |A_rq|^2 (before the 1/N) come from one pass over R = Re Z, 32
    rows at a time (:func:`_diagonal_rows`).  Any other B sums blocks of 16 rows of ZB
    and BZ (:func:`_contract_rows`) and halves both sums; a B with no diagonals gives
    zero.  The blocks are spread over the parts of
    :func:`~otoclab.phase_space._split`, part i working in ``scratch[i]``, and start on
    fixed edges; the per-block sums come back and are added here in block order, so the
    bits depend on neither the part count nor the BLAS thread count: every sum is a
    ufunc or einsum reduction.  A real ``at`` holds the odd sector's R, which is only
    read: the blocks form builds the rows of Z it reads, a block's rows
    for each shift in turn, in the half spectrum's memory.  Row r of AB and BA is row -r
    up to one common sign, so the paired rows (:func:`~otoclab.phase_space._sector`) are
    summed, doubled in a sector, and the self-mirrored rows added once.
    """
    n = at.shape[1]
    odd = np.isrealobj(at)
    _, paired, fixed = _sector(n, odd)
    diagonal = _contraction(shifts) == "diagonal"
    if not shifts.size:
        return 0j, 0.0
    if odd and not diagonal:  # a block of Z's rows a part
        z = _spare(at, (len(scratch),) + scratch[0].shape[1:], complex)

    def block_sums(part, rows):
        if diagonal:
            return _diagonal_rows(at, d[0], scratch[part], rows)

        def read(src, dst):  # rows src of Z, which a sector builds into rows dst of a block
            return _z_rows(at, at.T, src, z[part][dst]) if odd else at[src]
        return _contract_rows(at, shifts, d, *scratch[part], rows, read)

    start = paired.start
    o1, o2 = 0j, 0.0
    for part in _split(lambda i, s: block_sums(i, slice(start + s.start, start + s.stop)),
                       n, _SQUARE_BLOCK if diagonal else _ROW_BLOCK, paired.stop - start):
        for b1, b2 in part:
            o1 += b1
            o2 += b2
    if odd:  # not o1 * 1, which can flip the sign of a zero
        o1, o2 = 2 * o1, 2 * o2
    for r in range(n)[fixed]:
        ((b1, b2),) = block_sums(0, slice(r, r + 1))
        o1 += b1
        o2 += b2
    if not diagonal:  # the blocks summed Z = (1 - i)A: |1 - i|^2 = 2 in both sums
        o1, o2 = o1 / 2, o2 / 2
    return o1 / n, o2 / n


def _diagonal_rows(at: np.ndarray, d: np.ndarray, scratch: np.ndarray,
                   rows: slice) -> list[tuple[complex, float]]:
    """(O1, O2) partial sums, unscaled, of each block of 32 ``rows`` for B = diag(d), from
    R = Re Z alone: |A_rc|^2 = (R_rc^2 + R_cr^2) / 2, so O1 = sum R_rc^2 Re(conj(d_r)
    d_c) and O2 = sum R_rc^2 (|d_r|^2 + |d_c|^2) / 2.  The block's squares go into
    ``scratch``, read as reals, and one einsum weighs each row with d.real, d.imag,
    |d|^2 and ones."""
    weights = np.stack([d.real, d.imag, d.real * d.real + d.imag * d.imag, np.ones(d.size)])
    squares = scratch.reshape(-1).view(float)
    sums = []
    for i in range(rows.start, rows.stop, _SQUARE_BLOCK):
        r = at[i:min(i + _SQUARE_BLOCK, rows.stop)].real
        s = squares[:r.size].reshape(r.shape)
        np.multiply(r, r, out=s)
        u = np.einsum("rc,kc->kr", s, weights)  # sum_c R_rc^2 d_c.real, d_c.imag, |d_c|^2, 1
        w = weights[:, i:i + r.shape[0]]  # the same weights at the rows r
        sums.append((complex(np.einsum("kr,kr->", w[:2], u[:2])),
                     np.einsum("kr,kr->", w[3:1:-1], u[2:]) / 2))
    return sums


def _contract_rows(at: np.ndarray, shifts: np.ndarray, d: np.ndarray, ab: np.ndarray,
                   ba: np.ndarray, rows: slice, read) -> list[tuple[complex, float]]:
    """(O1, O2) partial sums, unscaled, of each block of ``rows`` in ``ab`` and ``ba``, with
    ``read(src, dst)`` the rows ``src`` of Z, for rows ``dst`` of the block."""
    n = at.shape[1]
    sums = []
    for i in range(rows.start, rows.stop, ab.shape[0]):
        x, y = ab[:rows.stop - i], ba[:rows.stop - i]
        m = x.shape[0]
        ai = read(slice(i, i + m), slice(0, m))
        for k, j in enumerate(shifts):  # AB[r, q] = sum_j A[r, q + j] d[j, q]
            for dst, src in _wrapped(j, n, n):
                _axpy(k == 0, x[:, dst], ai[:, src], d[k, dst])
        # BA[r, :] = sum_j d[j, r - j] A[r - j, :]
        for k, j in enumerate(shifts):
            for dst, src in _wrapped(i - j, m, n):
                _axpy(k == 0, y[dst], read(src, dst), d[k, src, None])
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
    ``t_max`` is a non-negative integer and A and B finite N x N arrays, each
    refused by name otherwise.
    """
    if umap.dim > _COMMUTATOR_LIMIT:
        raise ValueError(f"commutator oracle is O(N^3) per step; refused above N={_COMMUTATOR_LIMIT}")
    t_max = _count(t_max, "t_max")
    b = _finite(_operator(b, umap.dim, "operator B"), "operator B")
    at = _finite(_operator(a, umap.dim, "operator A"), "operator A").copy()
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
    n = _size(n, "n")
    angle = np.pi * _cat_power(t, n)[0] / n
    c = float(np.sin(angle) ** 2)
    o1 = float(np.cos(2 * angle) / 4.0)
    return CatOtocPoint(c, o1, 0.25)


def otoc_family_linear(xi, chi, t: int, n: int,
                       map_spec: ClassicalMapSpec | None = None) -> float:
    """Exact OTOC sin^2(pi <M^t xi, chi> / N) of the unperturbed cat map.

    Valid for the linear (k = 0) cat map only; the symplectic product is
    taken with integers, from the entries of M^t mod N, and reduced mod N
    inside the sine, so large t stays exact.  This quantization realizes the
    translation covariance with q and p mirrored, so the matching numerical
    correlator evolves F_(xi_p, xi_q) against the static F_(chi_p, chi_q); the
    sine pair (1,0)/(0,1) is mirror-fixed.  ``n`` must be an integer >= 2.
    """
    if map_spec is not None and (map_spec.kind != CAT or map_spec.k != 0.0):
        raise ValueError("the closed-form translation OTOC only holds for the k=0 cat map")
    n = _size(n, "n")
    a, b, c, d = _cat_power(t, n)
    q, p = _displacement(xi, "xi")
    s = symplectic_product((a * q + b * p, c * q + d * p), chi) % n
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
    """Least-squares line through (x, ln y); returns slope, intercept, R^2.  NaN or
    infinite entries of either are refused by name."""
    x = _finite(np.asarray(x, dtype=float), "x")
    y = _finite(np.asarray(y, dtype=float), "values")
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


def _window(series: OtocSeries, window: tuple[int, int], names=("window start", "window end"),
            least: int = 2) -> tuple[int, int, np.ndarray]:
    """The two ends of a fit window over ``series`` as Python ints, and the mask of its
    samples.  Each end is a non-negative integer (:func:`~otoclab.phase_space._count`),
    checked first; then an end past the series' last step and a window of fewer than
    ``least`` samples are refused, each by name."""
    lo, hi = _count(window[0], names[0]), _count(window[1], names[1])
    if hi > series.t[-1]:
        raise ValueError(f"{names[1]} {hi} is past the series' last step t = {series.t[-1]}")
    mask = (series.t >= lo) & (series.t <= hi)
    if mask.sum() < least:
        raise ValueError(f"window [{lo}, {hi}] holds fewer than the {least} samples the fit needs")
    return lo, hi, mask


def fit_growth(series: OtocSeries, window: tuple[int, int]) -> WindowFit:
    """Log-linear fit of C(t) over [window[0], window[1]], lambda = slope / 2; any
    start, 0 included, is accepted.  Both ends are non-negative integers, the end at
    most the series' last step, and the window holds at least two samples
    (:func:`_window`).  Warns when R^2 < 0.98."""
    lo, hi, mask = _window(series, window)
    slope, intercept, r2 = loglinear_fit(series.t[mask], series.c[mask])
    if r2 < 0.98:  # blame the nearest caller outside this module
        warnings.warn(f"Lyapunov fit R^2 = {r2:.4f} below 0.98; window may span a regime change",
                      stacklevel=2 if sys._getframe(1).f_globals.get("__name__") != __name__ else 3)
    return WindowFit(slope, intercept, r2, (lo, hi))


def fit_lyapunov_from_otoc(series: OtocSeries, window: tuple[int, int],
                           t_ehrenfest: float | None = None) -> float:
    """Half the :func:`fit_growth` slope of C(t) over [window[0], window[1]].

    The window is checked as :func:`fit_growth` checks it (:func:`_window`) and must
    start at t >= 1; when the Ehrenfest time is supplied it must end by t_E - 1.
    Warns when the fit quality drops below R^2 = 0.98; a window where C(t) is not
    positive raises in :func:`loglinear_fit`.
    """
    lo, hi, _ = _window(series, window)
    if lo < 1:
        raise ValueError("growth-rate window must start at t >= 1")
    if t_ehrenfest is not None and hi > t_ehrenfest - 1:
        raise ValueError(f"window end {hi} exceeds the growth regime bound {t_ehrenfest - 1:.2f}")
    return 0.5 * fit_growth(series, (lo, hi)).slope
