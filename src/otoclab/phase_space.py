"""Discrete torus phase-space kinematics.

Every other module inherits the conventions fixed here:

* position basis states |q>, q = 0 .. N-1, with momentum states related by
  <q|p> = exp(+2i pi q p / N) / sqrt(N);
* tau = exp(i pi / N), the primitive 2N-th root of unity;
* symplectic product <u, v> = u_p v_q - u_q v_p.

An operator is a plain N x N complex array of position-basis entries, its
shape checked by :func:`_operator` where it enters.  The momentum frame is
one FFT pair away (:func:`change_basis`), and the Heisenberg step in
:mod:`otoclab.coarse_graining` crosses between the frames in place.

The N x N passes of a run (the frame changes, the kicks and masks of the
step, the OTOC contraction) are independent per line or per block of rows,
so :func:`_split` runs them in fixed contiguous parts, one per usable CPU
and at most one per 256 lines of N, on a per-process thread pool.  Every
line or block gets the same arithmetic as in one serial pass, so no result
depends on the part count.

Parity q -> -q maps entries x[i, j] to x[-i, -j] (indices mod N) in both
frames.  An operator of definite parity, x[-i, -j] = sign x[i, j], is fixed
by its rows 0 .. N/2, the one parity-sector layout of the package: the OTOC
series evolves those rows, and the Krylov solver stores its directions as
slices of them.  At even N :func:`_change_frame` given the sign keeps only
those rows valid and transforms N/2 + 1 columns and rows, each after filling
its other half from the mirror entries (:func:`_mirror_fill`);
:func:`_mirror_rows` fills the rows beyond N/2 where a whole operator is
needed.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

POSITION = "position"
MOMENTUM = "momentum"
# Rows per block of the N x N passes that work in blocks to keep their
# temporaries small.  For the OTOC contraction (2 vCPUs, 2 MB of L2 per core)
# 16 and 32 rows ran alike at N=1000 and N=1024, and 64 rows were slower.
_ROW_BLOCK = 16
# Lines (rows or columns) per part of an N x N pass, at least: N < 512 runs
# inline, N = 1024 in at most 4 parts.  On 2 vCPUs a channel step fell from
# 13.5 to 7.8 ms at N=512 on two parts and from 4.2 to 3.5 ms at N=320, but the
# depth-90 Krylov call at N=320, whose BLAS threads share the CPUs, went from
# 0.70-0.88 s inline to 0.77-1.12 s split.  The bound also keeps the OTOC
# contraction's scratch, one pair of row blocks per part, within N^2 / 8 entries.
_PART_MIN = 256

__all__ = [
    "POSITION",
    "MOMENTUM",
    "TorusSpace",
    "shift_v",
    "clock_u",
    "symplectic_product",
    "translation",
    "sine_position",
    "sine_momentum",
    "hermitian_f",
    "chord_transform",
    "chord_inverse",
    "change_basis",
    "coherent_state",
    "hermiticity_defect",
]


@dataclass(frozen=True)
class TorusSpace:
    """Hilbert space of dimension N quantizing the unit torus.

    Position and momentum each take N values; the two bases are related by
    the discrete Fourier transform with kernel exp(+2i pi q p / N)/sqrt(N).
    """

    dim: int

    def __post_init__(self) -> None:
        if int(self.dim) != self.dim or self.dim < 2:
            raise ValueError(f"torus dimension must be an integer >= 2, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def tau(self) -> complex:
        """exp(i pi / N), the phase unit of the translation algebra."""
        return complex(np.exp(1j * np.pi / self.dim))

    def tau_power(self, k) -> np.ndarray | complex:
        """tau**k computed exactly from integer exponents (k reduced mod 2N)."""
        k = np.mod(k, 2 * self.dim)
        return np.exp(1j * np.pi * np.asarray(k, dtype=float) / self.dim)


def _usable_cpus() -> int:
    """CPUs this process may run on, the CPU count where affinity is not reported."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# parts per N x N pass at most; a sweep worker gets its share of the CPUs
_part_count = _usable_cpus()
# the _part_count - 1 threads that run every part but the first, started on first use
_executor: ThreadPoolExecutor | None = None


def _set_parts(k: int) -> None:
    """Split passes into at most ``k`` parts from now on, on a pool of k - 1 threads."""
    global _part_count
    _part_count = max(1, k)
    if _executor is not None:
        _executor.shutdown(wait=False)
    _drop_pool()


def _drop_pool() -> None:
    global _executor
    _executor = None


def _pool() -> ThreadPoolExecutor:
    global _executor
    if _executor is None:
        _executor = ThreadPoolExecutor(max_workers=_part_count - 1, thread_name_prefix="otoclab")
    return _executor


# a forked child inherits the pool but not its threads, so it starts its own
if hasattr(os, "register_at_fork"):  # not on Windows, which cannot fork
    os.register_at_fork(after_in_child=_drop_pool)


def _parts(n: int, unit: int = 1, lines: int | None = None) -> list[slice]:
    """Contiguous slices of range(lines), ``lines`` n by default, each starting on a
    multiple of ``unit``: at most :data:`_part_count` of them and one per
    :data:`_PART_MIN` of the N = n lines, so a half pass of an N x N array is split
    as its whole pass is."""
    lines = n if lines is None else lines
    units = -(-lines // unit)
    k = max(1, min(_part_count, n // _PART_MIN, units))
    edges = [min(lines, unit * (i * units // k)) for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _split(fn, n: int, unit: int = 1, lines: int | None = None) -> list:
    """[fn(i, s_i)] over the slices s_i of :func:`_parts`: part 0 on the calling thread,
    the others on the pool, all finished before this returns or raises."""
    parts = _parts(n, unit, lines)
    if len(parts) == 1:
        return [fn(0, parts[0])]
    futures = [_pool().submit(fn, i, s) for i, s in enumerate(parts[1:], 1)]
    try:
        first = fn(0, parts[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def _operator(a, n: int, name: str) -> np.ndarray:
    """``a`` as an n x n complex array, not copied when it is one already; ValueError,
    naming it ``name``, when it is not square or not n x n."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} entries must be square, got shape {a.shape}")
    if a.shape[0] != n:
        raise ValueError(f"dimension mismatch: {name} {a.shape[0]}, map {n}")
    return a


def change_basis(entries: np.ndarray, frm: str, to: str) -> np.ndarray:
    """Re-express operator entries between the position and momentum bases.

    With F[q, p] = exp(2i pi q p / N)/sqrt(N), the momentum representation is
    F^dag A F; the FFT normalization factors cancel exactly.
    """
    if frm == to:
        return entries
    if {frm, to} != {POSITION, MOMENTUM}:
        raise ValueError(f"unknown basis pair {frm!r} -> {to!r}")
    return _change_frame(np.array(entries, dtype=complex), to)


def _change_frame(x: np.ndarray, to: str, sign: int = 0) -> np.ndarray:
    """In place on complex entries: F^dag x F to momentum, F x F^dag to position.

    The axis-0 FFT runs over fixed parts of the columns and the axis-1 FFT
    over parts of the rows (:func:`_split`); each line is transformed alone,
    so the bits do not depend on the part count.  A nonzero ``sign`` is the
    parity of x at even N, of which only rows 0 .. N/2 are read and written:
    columns 0 .. N/2 are transformed after their rows N/2 + 1 .. N - 1 are
    filled from the mirror entries, then rows 0 .. N/2 after their columns
    N/2 + 1 .. N - 1 are.  The FFTs do half the work, and each fill reads only
    entries that no other part writes.
    """
    first, second = (np.fft.fft, np.fft.ifft) if to == MOMENTUM else (np.fft.ifft, np.fft.fft)
    n = x.shape[0]
    lines = n // 2 + 1 if sign else n

    def columns(_, s):
        if sign:
            _mirror_fill(x.T, s, sign)
        first(x[:, s], axis=0, out=x[:, s])

    def rows(_, s):
        if sign:
            _mirror_fill(x, s, sign)
        second(x[s], axis=1, out=x[s])

    _split(columns, n, lines=lines)
    _split(rows, n, lines=lines)
    return x


def _mirror_fill(x: np.ndarray, rows: slice, sign: int) -> None:
    """x[r, c] = sign x[-r, -c] for the ``rows`` r within 0 .. N/2 and the columns
    c = N//2 + 1 .. N - 1, from columns (N - 1)//2 .. 1, through strided views: the
    source is not copied."""
    n = x.shape[0]
    h, src = n // 2, slice((n - 1) // 2, 0, -1)
    a, b = rows.start, rows.stop
    if a == 0:  # row 0 is its own mirror
        np.multiply(x[0, src], sign, out=x[0, h + 1:])
        a = 1
    if a < b:  # rows a .. b - 1 read rows N - a down to N - b + 1
        np.multiply(x[n - a:n - b:-1, src], sign, out=x[a:b, h + 1:])


def _mirror_rows(x: np.ndarray, rows: slice, sign: int) -> None:
    """x[r, c] = sign x[-r, -c] for the ``rows`` r within N/2 + 1 .. N - 1 and every c,
    from rows 1 .. N/2 - 1."""
    n = x.shape[0]
    src = slice(n - rows.start, n - rows.stop, -1)
    np.multiply(x[src, 0], sign, out=x[rows, 0])
    np.multiply(x[src, :0:-1], sign, out=x[rows, 1:])


_SECTOR_NAMES = {1: "even", -1: "odd", 0: "none"}


def _parity(x: np.ndarray) -> int:
    """+1 or -1 when x[-i, -j] = +-x[i, j] to 1e-12 relative in the Frobenius norm,
    else 0; summed a block of rows at a time, so no N x N temporary is made."""
    n = x.shape[0]
    neg = -np.arange(n) % n
    norms = np.zeros(3)  # ||x||^2, ||x - Px||^2, ||x + Px||^2
    for i in range(0, n, _ROW_BLOCK):
        block = x[i:i + _ROW_BLOCK]
        mirrored = x[np.ix_(neg[i:i + _ROW_BLOCK], neg)]
        norms += [np.vdot(y, y).real for y in (block, block - mirrored, block + mirrored)]
    limit = 1e-24 * norms[0]
    return next((s for s, d in ((1, norms[1]), (-1, norms[2])) if d <= limit), 0)


def hermiticity_defect(a: np.ndarray) -> float:
    """max |A - A^dag|, a block of rows at a time; NaN when any entry is NaN."""
    return float(np.max([np.abs(a[i:i + _ROW_BLOCK] - a[:, i:i + _ROW_BLOCK].conj().T).max()
                         for i in range(0, a.shape[0], _ROW_BLOCK)]))


def shift_v(space: TorusSpace) -> np.ndarray:
    """Cyclic shift V with V|q> = |q+1 mod N>.  Unitary, V^N = 1."""
    n = space.dim
    v = np.zeros((n, n), dtype=complex)
    q = np.arange(n)
    v[(q + 1) % n, q] = 1.0
    return v


def clock_u(space: TorusSpace) -> np.ndarray:
    """Clock phase U = diag(tau^{2q}) = diag(exp(2i pi q / N)).  U^N = 1."""
    return np.diag(space.tau_power(2 * np.arange(space.dim)))


def symplectic_product(xi, chi) -> int:
    """<xi, chi> = xi_p chi_q - xi_q chi_p, exact integer arithmetic.

    Not reduced mod N: callers feeding the result into phases do their own
    reduction, which keeps sin and tau powers exact for arbitrarily large
    integer displacements.
    """
    return int(xi[1]) * int(chi[0]) - int(xi[0]) * int(chi[1])


def translation(space: TorusSpace, xi) -> np.ndarray:
    """Weyl translation T_xi = V^{xi_q} U^{xi_p} tau^{xi_q xi_p}.

    The operator powers only depend on xi mod N, but the symmetrizing phase
    tau^{xi_q xi_p} is computed from the integers as given (reduced mod 2N
    exactly).  With that convention the composition law

        T_xi T_chi = tau^{<xi, chi>} T_{xi+chi}

    holds exactly for all integer displacements, including sums that leave
    the canonical [0, N) square; canonicalizing the phase instead would cost
    a sign on every wrap.
    """
    return _write_translation(space, xi, np.zeros((space.dim, space.dim), dtype=complex))


def _write_translation(space: TorusSpace, xi, out: np.ndarray) -> np.ndarray:
    """T_xi's one cyclic diagonal xi_q written into ``out``, whose other entries are left."""
    n = space.dim
    a, b = int(xi[0]), int(xi[1])
    q = np.arange(n)
    diag = space.tau_power(2 * (b % n) * q)
    phase = space.tau_power((a * b) % (2 * n))
    out[(q + a) % n, q] = phase * diag
    return out


def hermitian_f(space: TorusSpace, xi) -> np.ndarray:
    """Hermitian combination F_xi = (T_xi - T_xi^dag) / 2i.

    F_(0,1) is the sine-of-position observable and F_(1,0) the
    sine-of-momentum one; those two are exactly the operators returned by
    :func:`sine_position` and :func:`sine_momentum`.
    """
    return _write_f(space, xi, np.zeros((space.dim, space.dim), dtype=complex))


def _write_f(space: TorusSpace, xi, out: np.ndarray) -> np.ndarray:
    """F_xi's two cyclic diagonals written into ``out``, a zeroed N x N complex array;
    only they are gathered, so no N x N temporary is made."""
    n = space.dim
    _write_translation(space, xi, out)
    q = np.arange(n)
    rows = (q + int(xi[0])) % n
    r, c = np.concatenate((rows, q)), np.concatenate((q, rows))
    # (T - T^dag) / 2i on the two cyclic diagonals, entry by entry as the dense formula
    out[r, c] = (out[r, c] - out[c, r].conj()) / 2j
    return out


def sine_position(space: TorusSpace) -> np.ndarray:
    """(U - U^dag)/2i: diagonal in position with entries sin(2 pi q / N)."""
    return hermitian_f(space, (0, 1))


def sine_momentum(space: TorusSpace) -> np.ndarray:
    """(V - V^dag)/2i: diagonal in momentum, circulant in position."""
    return hermitian_f(space, (1, 0))


def _cyclic_diagonals(a: np.ndarray, shifts=None) -> np.ndarray:
    """d[k, q] = a[(q + j_k) % n, q]: cyclic diagonal j_k as row k, every diagonal by default."""
    n = a.shape[0]
    q = np.arange(n)
    j = q if shifts is None else np.asarray(shifts)
    return a[(q[None, :] + j[:, None]) % n, q[None, :]]


def _from_cyclic_diagonals(d: np.ndarray) -> np.ndarray:
    n = d.shape[0]
    q = np.arange(n)
    a = np.empty((n, n), dtype=complex)
    a[(q[None, :] + q[:, None]) % n, q[None, :]] = d
    return a


def chord_transform(space: TorusSpace, a: np.ndarray) -> np.ndarray:
    """Expansion coefficients c[chi_q, chi_p] = Tr(T_chi^dag A) / N.

    Computed diagonal by diagonal with FFTs in O(N^2 log N); the inverse
    transform reconstructs A = sum_chi c(chi) T_chi exactly because the
    translations are trace-orthogonal.
    """
    n = space.dim
    d = _cyclic_diagonals(_operator(a, n, "operator"))
    c = np.fft.fft(d, axis=1) / n
    j = np.arange(n)
    c *= space.tau_power(-(j[:, None] * j[None, :]))
    return c


def chord_inverse(space: TorusSpace, c: np.ndarray) -> np.ndarray:
    """Rebuild the operator from its translation expansion c[chi_q, chi_p]."""
    n = space.dim
    j = np.arange(n)
    d = np.fft.ifft(c * space.tau_power(j[:, None] * j[None, :]), axis=1) * n
    return _from_cyclic_diagonals(d)


def coherent_state(space: TorusSpace, q0: float, p0: float) -> np.ndarray:
    """Minimum-uncertainty periodized Gaussian centered at (q0, p0).

    Phased so that <sine_position> tracks sin(2 pi q0) and <sine_momentum>
    tracks sin(2 pi p0), each up to an O(1/N) width correction.  Centers on
    the grid (integer multiples of 1/N) avoid an extra phase mismatch across
    the periodization images.
    """
    n = space.dim
    x = np.arange(n) / n
    psi = np.zeros(n, dtype=complex)
    for m in range(-4, 5):
        psi += np.exp(-np.pi * n * (x - q0 + m) ** 2 - 2j * np.pi * n * p0 * (x + m))
    return psi / np.linalg.norm(psi)
