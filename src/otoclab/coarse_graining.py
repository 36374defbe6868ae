"""Translation-dephasing coarse graining and the composed channel step.

The dephasing superoperator averages an operator over all phase-space
translations with convex weights,

    D_eps(A) = sum_xi c_eps(xi) T_xi^dag A T_xi,

where c_eps is the 2D discrete Fourier transform of the quasi-Gaussian

    c~(mu, nu) = exp(-(eps N / pi) (sin^2(pi mu/N) + sin^2(pi nu/N)) / 2),

renormalized to unit sum so the channel is exactly unital and trace
preserving.  c~ is an outer product, so the kernel is kept as 1D factors:
c_eps = outer(w, w) with w the inverse DFT of one factor, and translations
are eigenoperators of D_eps with eigenvalues diag_chord[chi_q, chi_p] =
f[chi_q] f[chi_p], f the DFT of w.  T_chi lies on cyclic diagonal chi_q in
the position basis and chi_p in the momentum basis, so D_eps is a circulant
mask f[(r - s) % N] in one frame times f[(p - p') % N] in the other.
The package's one Heisenberg step, :func:`_step`, applies each kick and
mask in place in the frame where it is elementwise and starts and ends in
the momentum frame; :func:`evolve`, the OTOC series and the Krylov solver
each change their buffer to the momentum frame once and then call it in
their own loop.  The series and the solver hold Z = (1 - i)A
(:mod:`otoclab.phase_space`), which the step advances as it does A.
Given a real array the step works on R = Re Z of the odd parity sector of
:mod:`~otoclab.phase_space` only, which holds when the channel keeps parity
(:func:`_keeps_parity`), and leaves R there after each kick and frame
change.  :func:`evolve` takes the full step on A itself.  The chord-space
dephasing and the literal sum over all N^2 translations are kept as oracles.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .maps import QuantumMap
from .phase_space import (_ROW_BLOCK, MOMENTUM, POSITION, TorusSpace, _change_frame,
                          _cyclic_diagonals, _count, _finite, _from_cyclic_diagonals,
                          _operator, _row_width, _spare, _split, _whole_rows,
                          _z_rows, translation)

__all__ = [
    "CoarseGrainKernel",
    "build_kernel",
    "apply_dephasing_dense",
    "apply_dephasing_chord",
    "evolve",
    "channel_step",
]

_DENSE_LIMIT = 64


@dataclass(frozen=True, eq=False)
class CoarseGrainKernel:
    """Dephasing data for one (N, epsilon) pair, as 1D factors.

    ``w`` holds the 1D weights and ``f`` their DFT, real and in [0, 1].  The
    convex translation weights c_weights and the chord eigenvalues
    diag_chord[chi_q, chi_p] are their N x N outer products, built on first
    use.  clip_magnitude is the most negative 2D
    weight clipped away (zero in exact arithmetic: the kernel is a product of
    von Mises factors, whose Fourier coefficients are strictly positive).
    """

    space: TorusSpace
    epsilon: float
    w: np.ndarray
    f: np.ndarray
    clip_magnitude: float

    @functools.cached_property
    def c_weights(self) -> np.ndarray:
        return np.outer(self.w, self.w)

    @functools.cached_property
    def diag_chord(self) -> np.ndarray:
        return np.outer(self.f, self.f)


def build_kernel(space: TorusSpace, epsilon: float) -> CoarseGrainKernel:
    """1D weights and chord eigenvalues of the dephasing channel, O(N log N).

    f[chi] = sum_xi w(xi) exp(2i pi chi xi / N); its imaginary part vanishes
    by the even symmetry of w and is discarded after a consistency check.
    """
    if not (isinstance(epsilon, numbers.Real) and np.isfinite(epsilon)):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    n = space.dim
    rate = epsilon * n / (2.0 * np.pi)
    if not np.isfinite(rate):
        raise ValueError(f"epsilon {epsilon} is too large at N={n}: epsilon N overflows")
    idx = np.arange(n)
    axis = np.exp(-rate * np.sin(np.pi * idx / n) ** 2)
    w = np.fft.ifft(axis).real
    clip = max(0.0, -float(w.min() * w.max()))  # most negative entry of outer(w, w)
    if clip > 1e-10:
        raise ValueError(f"dephasing weights came out negative beyond tolerance ({clip:.2e})")
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    f = np.fft.fft(w)
    if np.abs(f.imag).max() > 1e-10:
        raise ValueError("chord eigenvalues acquired an imaginary part; kernel symmetry broken")
    return CoarseGrainKernel(space, float(epsilon), w, f.real.copy(), clip)


def apply_dephasing_dense(kernel: CoarseGrainKernel, a: np.ndarray) -> np.ndarray:
    """Oracle path: the literal weighted sum over all N^2 translations.

    Cost O(N^4); refused above N = 64.
    """
    space = kernel.space
    n = space.dim
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense dephasing is O(N^4); refused above N={_DENSE_LIMIT}")
    entries = _operator(a, n, "operator")
    out = np.zeros_like(entries)
    for xq in range(n):
        for xp in range(n):
            t = translation(space, (xq, xp))
            out += kernel.c_weights[xq, xp] * (t.conj().T @ entries @ t)
    return out


def apply_dephasing_chord(kernel: CoarseGrainKernel, a: np.ndarray) -> np.ndarray:
    """Oracle path: multiply each chord coefficient by its eigenvalue.

    Works diagonal by diagonal; the translation phases cancel between the
    forward and inverse transforms, leaving one FFT pair per diagonal.  ``a`` is an
    N x N array of finite values.
    """
    d = _cyclic_diagonals(_finite(_operator(a, kernel.space.dim, "operator"), "operator"))
    d = np.fft.ifft(np.fft.fft(d, axis=1) * kernel.diag_chord, axis=1)
    return _from_cyclic_diagonals(d)


def _circulant(f: np.ndarray, width: int) -> np.ndarray:
    """Read-only n x ``width`` view m[r, s] = f[(r - s) % n] over a buffer of n + width - 1
    values."""
    n = f.size
    ring = f[(n - 1 - np.arange(n + width - 1)) % n]
    return np.lib.stride_tricks.sliding_window_view(ring, width)[::-1]


def _mask(kernel: CoarseGrainKernel | None) -> np.ndarray | None:
    """The dephasing mask of :func:`_step`, as wide as a row of the working buffer with
    its pad (:func:`~otoclab.phase_space._row_width`); None when there is nothing to
    dephase."""
    if kernel is not None and kernel.epsilon > 0:
        return _circulant(kernel.f, _row_width(kernel.space.dim))
    return None


def _kick(rows: np.ndarray, phase_rows: np.ndarray, phase: np.ndarray,
          mask: np.ndarray | None) -> None:
    """In place: rows *= conj(phase_rows)[:, None] * phase, then * mask, one factor a pass."""
    rows *= phase_rows.conj()[:, None]
    rows *= phase
    if mask is not None:
        rows *= mask


def _keeps_parity(umap: QuantumMap) -> bool:
    """Whether the channel keeps an operator's parity, the one rule for the parity
    sector: both kick phase vectors exactly mirror-symmetric, v[-q] = v[q] (the mask
    always is)."""
    return all(np.array_equal(v[1:], v[:0:-1])
               for v in (umap.phase_position, umap.phase_momentum))


def _step(umap: QuantumMap, mask: np.ndarray | None, at: np.ndarray,
          scratch: list[np.ndarray] | None = None) -> np.ndarray:
    """One channel step in place on momentum-frame entries: four 1D FFT passes.

    The momentum kick, the frame change to position, the position kick, the
    mask, the frame change back and the mask again.  Each kick and mask pass
    runs over fixed parts of the rows (:func:`~otoclab.phase_space._split`);
    it is elementwise, so the bits do not depend on the part count.  On a
    padded working buffer these passes cover whole rows with their zero pad
    (:func:`~otoclab.phase_space._whole_rows`), one contiguous block a part,
    with the phase vectors padded with ones and ``mask`` as wide as the rows.

    A real ``at`` holds the parity sector of :mod:`~otoclab.phase_space`, the real
    R = Re Z of an odd operator on rows 0 .. N/2, a parity the caller vouches the
    channel keeps (:func:`_keeps_parity`): each kick is
    :func:`_sector_kick`, in the caller's ``scratch``
    (:func:`~otoclab.phase_space._scratch`), the frame changes are the real ones, and the
    last mask multiplies R.
    """
    n = at.shape[1]
    rows = _whole_rows(at)
    width = rows.shape[1]
    mask = None if mask is None else mask[:, :width]

    def kick(phase, m):
        if np.isrealobj(at):
            return _sector_kick(at, scratch, phase, m)
        phase = np.concatenate((phase, np.ones(width - n)))
        _split(lambda _, s: _kick(rows[s], phase[s], phase, None if m is None else m[s]), n)

    kick(umap.phase_momentum, None)
    _change_frame(at, POSITION)
    kick(umap.phase_position, mask)
    _change_frame(at, MOMENTUM)
    if mask is not None:
        _split(lambda _, s: np.multiply(rows[s], mask[s], out=rows[s]), n, lines=at.shape[0])
    return at


def _sector_kick(r: np.ndarray, scratch: list[np.ndarray], phase: np.ndarray,
                 mask: np.ndarray | None) -> None:
    """A kick, and the mask when given, in place on the sector's R in ``r``: with R^T
    copied aside (:func:`~otoclab.phase_space._spare`), each part builds blocks of
    Z's rows in its scratch (:func:`~otoclab.phase_space._z_rows`), multiplies them as
    the full step does and writes back R = Re Z, the next frame change's source."""
    n = r.shape[1]
    rt = _spare(r, r.shape[::-1])
    _split(lambda _, s: np.copyto(rt[s], r[:, s].T), n)

    def kick(part, s):
        block = scratch[part].reshape(-1, n)
        for i in range(s.start, s.stop, len(block)):
            rows = slice(i, min(i + len(block), s.stop))
            z = _z_rows(r, rt, rows, block[:rows.stop - i])
            _kick(z, phase[rows], phase, None if mask is None else mask[rows, :n])
            np.copyto(r[rows], z.real)

    _split(kick, n, _ROW_BLOCK, r.shape[0])


def evolve(umap: QuantumMap, kernel: CoarseGrainKernel | None, a: np.ndarray, steps: int):
    """Yield A(0), A(1), ..., A(steps) in the momentum frame.

    A(t+1) = D_eps(U^dag A(t) U), or U^dag A(t) U when ``kernel`` is None or
    has epsilon 0; ``a`` is A's N x N array of position-basis entries.  It
    is copied, changed to the momentum frame once and advanced by :func:`_step`
    each time, so one buffer is yielded each time and overwritten by the next
    step.
    """
    a = np.array(_finite(_operator(a, umap.dim, "operator"), "operator"))
    steps = _count(steps, "steps")
    mask = _mask(kernel)
    yield _change_frame(a, MOMENTUM)
    for _ in range(steps):
        yield _step(umap, mask, a)


def channel_step(umap: QuantumMap, kernel: CoarseGrainKernel | None, a: np.ndarray) -> np.ndarray:
    """One coarse-grained Heisenberg step D_eps(U^dag A U), returned in the position basis."""
    *_, out = evolve(umap, kernel, a, 1)
    return _change_frame(out, POSITION)
