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
the momentum frame; :func:`_evolve_in_place` iterates it on a caller's
buffer (for :func:`evolve` and the OTOC series) and the Krylov solver calls
it directly.  Given a parity sign the step works on rows 0 .. N/2 only: the
OTOC series and the Krylov solver pass one when their operator keeps a
definite parity, x[-i, -j] = sign x[i, j], which holds at even N when the
kick phases are mirror-symmetric (:func:`_keeps_parity`; the mask
f[(r - s) % N] always is).  :func:`evolve` takes the full step.  The
chord-space dephasing and the literal sum over all N^2 translations are
kept as oracles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .maps import QuantumMap
from .phase_space import (MOMENTUM, POSITION, TorusSpace, _change_frame, _cyclic_diagonals,
                          _from_cyclic_diagonals, _operator, _split, translation)

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

    ``axis`` is one factor of c~, ``w`` the 1D weights and ``f`` their DFT,
    real and in [0, 1].  c_tilde, the convex translation weights c_weights
    and the chord eigenvalues diag_chord[chi_q, chi_p] are their N x N outer
    products, built on first use.  clip_magnitude is the most negative 2D
    weight clipped away (zero in exact arithmetic: the kernel is a product of
    von Mises factors, whose Fourier coefficients are strictly positive).
    """

    space: TorusSpace
    epsilon: float
    axis: np.ndarray
    w: np.ndarray
    f: np.ndarray
    clip_magnitude: float

    @functools.cached_property
    def c_tilde(self) -> np.ndarray:
        return np.outer(self.axis, self.axis)

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
    if not np.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    n = space.dim
    idx = np.arange(n)
    axis = np.exp(-(epsilon * n / (2.0 * np.pi)) * np.sin(np.pi * idx / n) ** 2)
    w = np.fft.ifft(axis).real
    clip = max(0.0, -float(w.min() * w.max()))  # most negative entry of outer(w, w)
    if clip > 1e-10:
        raise ValueError(f"dephasing weights came out negative beyond tolerance ({clip:.2e})")
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    f = np.fft.fft(w)
    if np.abs(f.imag).max() > 1e-10:
        raise ValueError("chord eigenvalues acquired an imaginary part; kernel symmetry broken")
    return CoarseGrainKernel(space, float(epsilon), axis, w, f.real.copy(), clip)


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
    forward and inverse transforms, leaving one FFT pair per diagonal.
    """
    d = _cyclic_diagonals(_operator(a, kernel.space.dim, "operator"))
    d = np.fft.ifft(np.fft.fft(d, axis=1) * kernel.diag_chord, axis=1)
    return _from_cyclic_diagonals(d)


def _circulant(f: np.ndarray) -> np.ndarray:
    """Read-only view m[r, s] = f[(r - s) % n] over a buffer of 2n - 1 values."""
    n = f.size
    return np.lib.stride_tricks.sliding_window_view(f[(n - 1 - np.arange(2 * n - 1)) % n], n)[::-1]


def _mask(kernel: CoarseGrainKernel | None) -> np.ndarray | None:
    """The dephasing mask of :func:`_step`, None when there is nothing to dephase."""
    return _circulant(kernel.f) if kernel is not None and kernel.epsilon > 0 else None


def _kick(rows: np.ndarray, phase_rows: np.ndarray, phase: np.ndarray,
          mask: np.ndarray | None) -> None:
    """In place: rows *= conj(phase_rows)[:, None] * phase, then * mask, one factor a pass."""
    rows *= phase_rows.conj()[:, None]
    rows *= phase
    if mask is not None:
        rows *= mask


def _keeps_parity(umap: QuantumMap) -> bool:
    """Whether the channel keeps an operator's parity in a form :func:`_step` uses: N
    even and both kick phase vectors mirror-symmetric to 1e-12 (the mask always is)."""
    return umap.dim % 2 == 0 and all(np.abs(v[1:] - v[:0:-1]).max() <= 1e-12
                                     for v in (umap.phase_position, umap.phase_momentum))


def _step(umap: QuantumMap, mask: np.ndarray | None, at: np.ndarray,
          sign: int = 0) -> np.ndarray:
    """One channel step in place on momentum-frame entries: four 1D FFT passes.

    The momentum kick, the frame change to position, the position kick, the
    mask, the frame change back and the mask again.  Each kick and mask pass
    runs over fixed parts of the rows (:func:`~otoclab.phase_space._split`);
    it is elementwise, so the bits do not depend on the part count.  A
    nonzero ``sign`` is the parity of ``at`` at even N, which the caller
    vouches the channel keeps (:func:`_keeps_parity`): every pass then reads
    and writes rows 0 .. N/2 only (see
    :func:`~otoclab.phase_space._change_frame`), and the other rows are left
    stale.
    """
    n, pos, mom = at.shape[0], umap.phase_position, umap.phase_momentum
    lines = n // 2 + 1 if sign else n
    _split(lambda _, s: _kick(at[s], mom[s], mom, None), n, lines=lines)
    _change_frame(at, POSITION, sign)
    _split(lambda _, s: _kick(at[s], pos[s], pos, None if mask is None else mask[s]), n,
           lines=lines)
    _change_frame(at, MOMENTUM, sign)
    if mask is not None:
        _split(lambda _, s: np.multiply(at[s], mask[s], out=at[s]), n, lines=lines)
    return at


def evolve(umap: QuantumMap, kernel: CoarseGrainKernel | None, a: np.ndarray, steps: int):
    """Yield A(0), A(1), ..., A(steps) in the momentum frame.

    A(t+1) = D_eps(U^dag A(t) U), or U^dag A(t) U when ``kernel`` is None or
    has epsilon 0; ``a`` is A's N x N array of position-basis entries.  It
    is copied and evolved by :func:`_evolve_in_place`, so one buffer is
    yielded each time and overwritten by the next step.
    """
    yield from _evolve_in_place(umap, kernel, np.array(_operator(a, umap.dim, "operator")), steps)


def _evolve_in_place(umap: QuantumMap, kernel: CoarseGrainKernel | None, at: np.ndarray,
                     steps: int, sign: int = 0):
    """:func:`evolve` on the caller's N x N complex buffer of position-basis entries: it is
    changed to the momentum frame once, yielded, and advanced by :func:`_step`, the step
    the Krylov solver shares, each time; a nonzero ``sign`` is passed on to the step, so
    only rows 0 .. N/2 are valid after the first."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    mask = _mask(kernel)
    yield _change_frame(at, MOMENTUM)
    for _ in range(steps):
        yield _step(umap, mask, at, sign)


def channel_step(umap: QuantumMap, kernel: CoarseGrainKernel | None, a: np.ndarray) -> np.ndarray:
    """One coarse-grained Heisenberg step D_eps(U^dag A U), returned in the position basis."""
    *_, out = evolve(umap, kernel, a, 1)
    return _change_frame(out, POSITION)
