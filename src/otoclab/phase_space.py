"""Discrete torus phase-space kinematics.

Every other module inherits the conventions fixed here:

* position basis states |q>, q = 0 .. N-1, with momentum states related by
  <q|p> = exp(+2i pi q p / N) / sqrt(N);
* tau = exp(i pi / N), the primitive 2N-th root of unity;
* symplectic product <u, v> = u_p v_q - u_q v_p.

An operator is a plain N x N complex array of position-basis entries, its
shape checked by :func:`_operator` where it enters; a displacement is a pair
of integers, checked by :func:`_displacement` where it enters.  The momentum frame is
one FFT pair away (:func:`change_basis`), and the Heisenberg step in
:mod:`otoclab.coarse_graining` crosses between the frames in place.

The N x N passes of a run (the frame changes, the kicks and masks of the
step, the OTOC contraction) are independent per line or per block of rows,
so :func:`_split` runs them in fixed contiguous parts, one per usable CPU
and at most one per 256 lines of N, on a per-process thread pool.  Every
line or block gets the same arithmetic as in one serial pass, so no result
depends on the part count.

A run does not hold the Hermitian operator A it evolves but Z = (1 - i)A:
every OTOC series and every Krylov recursion writes its operands so, on the
full path and in the parity sector alike.  For A = S + iK (S real symmetric,
K real antisymmetric) Re Z = R = S + K and Im Z = -R^T, so R alone fixes A,
and |A_rc|^2 = (R_rc^2 + R_cr^2) / 2.  A kick or a mask multiplies A entry by
entry, so it multiplies Z the same way, and the full step, being linear,
advances Z as it does A; a sum over Z that is quadratic in A carries the
factor |1 - i|^2 = 2.

Parity q -> -q maps entries x[i, j] to x[-i, -j] (indices mod N) in both
frames.  An operator of odd parity, x[-i, -j] = -x[i, j], as every F_xi is, is
fixed by its rows 0 .. N/2, the package's one parity sector, whose index rules
:func:`_sector` derives: the OTOC series evolves R on those rows, and the
Krylov solver stores its directions as slices of them.  Every other operand, a
parity-even one too (:func:`_odd`), takes the full path.  The channel keeps
parity when its kick phases are mirror-symmetric
(:func:`~otoclab.coarse_graining._keeps_parity`).  The working array names its
path: a real working array is the odd sector's R, a complex one the full path's
Z.  On a real array :func:`_change_frame` runs :func:`_sector_frame`, the real
frame change of R, and a pass that needs Z itself builds blocks of its rows from
R (:func:`_z_rows`); the sector's array holds R throughout.

A run's working array comes from :func:`_working`: an N x N complex buffer on
the full path, and in the sector the real R on rows 0 .. N/2 followed in one
allocation by its (N/2 + 1)^2 complex half spectrum (:func:`_half_spectrum`),
8 N^2 bytes in all; the half spectrum is free between frame changes.  At N >= 512
rows are padded to :func:`_row_width` entries, so that a complex row's stride is
an odd number of 64-byte lines and a real row's half that: a column pass then
spreads over the L1 sets.  Below 512 the padding only adds loop overhead.  A page
is mapped only when it is first written.  The elementwise passes over the array
run over whole padded rows (:func:`_whole_rows`), one contiguous block per part,
with factors that are finite on the pad, so the pad stays zero.  Every line and
elementwise pass does the same arithmetic on either layout, so no bit changes.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

POSITION = "position"
MOMENTUM = "momentum"
# Rows per block of the N x N passes that work in blocks to keep their temporaries
# small: 16 and 32 ran alike for the OTOC contraction at N=1000 and 1024, 64 slower.
_ROW_BLOCK = 16
# Lines (rows or columns) per part of an N x N pass, at least: N < 512 runs
# inline, where splitting slowed the depth-90 Krylov call at N=320 (CHANGES.md),
# and N = 1024 in at most 4 parts.  The bound also keeps the OTOC contraction's
# scratch, one pair of row blocks per part, within N^2 / 8 entries.
_PART_MIN = 256
# the cgroup v2 CPU quota of this process's cgroup: "<quota> <period>" in
# microseconds, or "max <period>" for none; only read
_CPU_MAX = "/sys/fs/cgroup/cpu.max"

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
        object.__setattr__(self, "dim", _size(self.dim, "torus dimension"))

    @property
    def tau(self) -> complex:
        """exp(i pi / N), the phase unit of the translation algebra."""
        return complex(np.exp(1j * np.pi / self.dim))

    def tau_power(self, k) -> np.ndarray | complex:
        """tau**k computed exactly from integer exponents (k reduced mod 2N)."""
        k = np.mod(k, 2 * self.dim)
        return np.exp(1j * np.pi * np.asarray(k, dtype=float) / self.dim)


def _usable_cpus() -> int:
    """CPUs this process may run on, the CPU count where affinity is not reported, at
    most ceil(quota / period) under a cgroup v2 CPU quota (:data:`_CPU_MAX`)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    try:
        with open(_CPU_MAX) as f:
            quota, period = f.read().split()
        return max(1, min(cpus, -(-int(quota) // int(period))))
    except (OSError, ValueError, ZeroDivisionError):  # no file, "max" (no quota) or garbled
        return cpus


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


def _row_width(n: int) -> int:
    """Entries a row of :func:`_working`'s buffer holds: N + (4 - N) mod 8 at N >= 512,
    which makes the 16-byte entries' row stride an odd number of 64-byte lines, else N."""
    return n + (4 - n) % 8 if n >= 512 else n


def _working(n: int, odd: bool = False) -> np.ndarray:
    """A run's working array (module notes): the complex N x N buffer, or for an ``odd``
    operator the real R on the rows of :func:`_sector` and then its half spectrum, as
    N-wide views of :func:`_row_width`-wide rows, 64-byte aligned and allocated zeroed,
    so the pad is zero with no pass over it; a plain N x N buffer is left uninitialized."""
    rows, width = _sector(n, odd)[0], _row_width(n)
    if not odd and width == n:
        return np.empty((n, n), dtype=complex)
    dtype = np.dtype(float if odd else complex)
    size = rows * width * dtype.itemsize
    raw = np.zeros(size + (16 * rows ** 2 if odd else 0) + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(dtype).reshape(rows, width)[:, :n]


def _half_spectrum(x: np.ndarray) -> np.ndarray:
    """The (N/2 + 1)^2 complex half spectrum of the sector's R in x: the memory after R's
    rows where :func:`_working` allocated x, else a new array."""
    rows = x.shape[0]
    size, head, base = 16 * rows ** 2, x.strides[0] * rows, x.base
    if not (isinstance(base, np.ndarray) and base.dtype == np.uint8
            and base.size == head + size + 64):
        return np.empty((rows, rows), dtype=complex)
    start = x.ctypes.data - base.ctypes.data + head
    return base[start:start + size].view(complex).reshape(rows, rows)


def _scratch(n: int) -> list[np.ndarray]:
    """A pair of blocks of :data:`_ROW_BLOCK` rows (N at most) of N complex entries for
    each part of :func:`_parts` (n, :data:`_ROW_BLOCK`), the most a block pass uses."""
    return [np.empty((2, min(_ROW_BLOCK, n), n), dtype=complex) for _ in _parts(n, _ROW_BLOCK)]


def _whole_rows(x: np.ndarray) -> np.ndarray:
    """The rows of a padded :func:`_working` buffer together with their pad entries, as
    one C-contiguous N x width array over the same memory; x itself for any other
    array.  A padded buffer is told by its base, the raw bytes :func:`_working`
    allocated, so a slice of a caller's wider array is never widened."""
    width = x.strides[0] // x.itemsize
    base = x.base
    if (width == x.shape[1] or x.strides[1] != x.itemsize or not isinstance(base, np.ndarray)
            or base.dtype != np.uint8):
        return x
    return np.lib.stride_tricks.as_strided(x, (x.shape[0], width), x.strides)


def _operator(a, n: int | None, name: str) -> np.ndarray:
    """``a`` as an n x n complex array, not copied when it is one already; ValueError,
    naming it ``name``, when it is not square or, unless n is None, not n x n."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} entries must be square, got shape {a.shape}")
    if n is not None and a.shape[0] != n:
        raise ValueError(f"dimension mismatch: {name} {a.shape[0]}, map {n}")
    return a


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    """``a``; ValueError, naming it ``name``, when an entry is NaN or infinite."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} entries must be finite")
    return a


def change_basis(entries: np.ndarray, frm: str, to: str) -> np.ndarray:
    """Re-express operator entries between the position and momentum bases.

    With F[q, p] = exp(2i pi q p / N)/sqrt(N), the momentum representation is
    F^dag A F; the FFT normalization factors cancel exactly.  The entries are
    refused by name unless square and finite, also where ``frm == to`` returns them.
    """
    entries = _finite(_operator(entries, None, "operator"), "operator")
    if frm == to:
        return entries
    if {frm, to} != {POSITION, MOMENTUM}:
        raise ValueError(f"unknown basis pair {frm!r} -> {to!r}")
    return _change_frame(entries.copy(), to)


def _change_frame(x: np.ndarray, to: str) -> np.ndarray:
    """In place: F^dag x F to momentum, F x F^dag to position.

    A complex x holds all entries: the axis-0 FFT runs over fixed
    parts of the columns and the axis-1 FFT over parts of the rows
    (:func:`_split`); each line is transformed alone, so the bits do not depend
    on the part count.  A real x holds the odd sector's R on the sector's rows, and
    the frame change is :func:`_sector_frame`'s real one.
    """
    if np.isrealobj(x):
        return _sector_frame(x, to)
    first, second = (np.fft.fft, np.fft.ifft) if to == MOMENTUM else (np.fft.ifft, np.fft.fft)
    n = x.shape[0]
    _split(lambda _, s: first(x[:, s], axis=0, out=x[:, s]), n)
    _split(lambda _, s: second(x[s], axis=1, out=x[s]), n)
    return x


def _sector(n: int, odd: bool) -> tuple[int, slice, slice]:
    """The parity sector's index rules at N = n, derived here alone: (rows, paired,
    fixed).  Line r mirrors to N - r (mod N); an ``odd`` operator is fixed
    by its ``rows`` = N/2 + 1 rows 0 .. N/2 (N/2 rounded down).  ``paired`` slices the
    lines 1 .. N - N/2 - 1, whose mirrors lie beyond N/2, and ``fixed`` the
    self-mirrored lines, 0 and N/2 at even N and 0 alone at odd N, rows and columns
    alike.  Without a sector (``odd`` False) rows = N, all paired, none fixed."""
    if not odd:
        return n, slice(0, n), slice(0, 0)
    h = n // 2
    return h + 1, slice(1, n - h), slice(0, h + 1, n - h)  # 0, and N/2 = N - N/2 at even N


def _sector_frame(x: np.ndarray, to: str) -> np.ndarray:
    """The frame change of Z = (1 - i)A, A Hermitian and parity odd, in place on the
    sector's rows of x (:func:`_sector`): from R = Re Z to the new R, which is all
    the sector's array holds, before and after.

    For real R of odd parity the transform G = F^dag R F is imaginary, and the new R
    is Re G - (Im G)^T.  Rows 0 .. N/2 of it are irfft(-+i rfft(R[:N/2 + 1], axis=1),
    n=N, axis=0), minus to momentum and plus to position, the irfft written into the
    rows of x through their transposed view.  Each rfft covers a row and each irfft
    a column of the (N/2 + 1)^2 half spectrum H (:func:`_half_spectrum`), in
    fixed parts (:func:`_split`), so the bits do not depend on the part count;
    irfft reads only the half spectrum, which is all the sector holds.
    """
    n = x.shape[1]
    spectrum = _half_spectrum(x)
    factor = -1j if to == MOMENTUM else 1j

    def rows(_, s):
        np.fft.rfft(x[s], axis=1, out=spectrum[s])
        spectrum[s] *= factor

    _split(rows, n, lines=x.shape[0])
    _split(lambda _, s: np.fft.irfft(spectrum[:, s], n=n, axis=0, out=x.T[:, s]), n,
           lines=x.shape[0])
    return x


def _spare(x: np.ndarray, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An array of ``shape`` in the memory of the half spectrum of the sector's R in x,
    which is free between frame changes, or a new one where it does not fit."""
    free, size = _half_spectrum(x).reshape(-1).view(dtype), int(np.prod(shape))
    return free[:size].reshape(shape) if free.size >= size else np.empty(shape, dtype)


def _z_rows(r: np.ndarray, rt: np.ndarray, rows: slice, out: np.ndarray) -> np.ndarray:
    """Rows ``rows`` (within 0 .. N - 1) of Z = R - iR^T, R = Re Z of an odd operator on
    the sector's rows of ``r`` and R^T in ``rt`` (a copy or ``r.T``), into the complex
    ``out``, returned: Im Z[g, c] = -R[c, g] for c < N/2 + 1 and R[N - c, -g]
    beyond, and a row g beyond N/2 is minus row N - g, columns mirrored c -> -c."""
    n = out.shape[1]
    held, paired, _ = _sector(n, True)
    a, b = rows.start, min(rows.stop, held)
    if a < b:
        z = out[:b - a]
        mirrors = rt[:, paired][:, ::-1]  # R[N - c, g'] for the columns c = held .. N - 1
        np.copyto(z.real, r[a:b])
        np.multiply(rt[a:b], -1, out=z.imag[:, :held])  # np.negative errs on some strides
        if a == 0:  # row 0 reads row 0 of R^T
            np.copyto(z.imag[0, held:], mirrors[0])
        g = max(a, 1)  # rows g .. b - 1 read rows N - g down to N - b + 1 of R^T
        np.copyto(z.imag[g - a:, held:], mirrors[n - g:n - b:-1])
    far = max(a, held)
    if far < rows.stop:  # rows far .. stop - 1 from rows N - stop + 1 .. N - far, all held
        z = _z_rows(r, rt, slice(n - rows.stop + 1, n - far + 1), out[far - a:rows.stop - a])
        np.multiply(z[::-1, -np.arange(n) % n], -1, out=z)
    return out


def _squared_norms(x: np.ndarray, image) -> np.ndarray:
    """||x||^2 and ||x - image||^2 (Frobenius), ``image(rows)`` those rows of the image,
    summed a block of rows at a time, so no N x N temporary is made."""
    norms = np.zeros(2)
    for i in range(0, x.shape[0], _ROW_BLOCK):
        rows = slice(i, i + _ROW_BLOCK)
        block, other = x[rows], image(rows)
        norms += [np.vdot(y, y).real for y in (block, block - other)]
    return norms


def _odd(x: np.ndarray) -> bool:
    """Whether x is parity odd, x[-i, -j] = -x[i, j], to 1e-12 relative in the Frobenius
    norm, ||x + Px|| <= 1e-12 ||x|| (:func:`_squared_norms` against -Px): an even x
    has no sector and takes the full path, as one without parity does."""
    neg = -np.arange(x.shape[0]) % x.shape[0]
    norms = _squared_norms(x, lambda rows: -x[np.ix_(neg[rows], neg)])
    return bool(norms[1] <= 1e-24 * norms[0])


def _hermitian(x: np.ndarray) -> bool:
    """Whether x holds Z = (1 - i)A of a Hermitian A, Im Z = -(Re Z)^T, to 1e-12
    relative in the Frobenius norm: ||x + i x^dag|| = sqrt 2 ||A - A^dag|| and ||x|| =
    sqrt 2 ||A||, so the rule is ||A - A^dag|| <= 1e-12 ||A|| (:func:`_squared_norms`);
    False on NaN."""
    norms = _squared_norms(x, lambda rows: -1j * x[:, rows].conj().T)
    return bool(norms[1] <= 1e-24 * norms[0])


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
    (xi_q, xi_p), (chi_q, chi_p) = _displacement(xi, "xi"), _displacement(chi, "chi")
    return xi_p * chi_q - xi_q * chi_p


def _integral(x) -> bool:
    """Whether x is an integral value: 1 and 1.0 are; 0.5, NaN, inf and "1" are not."""
    return isinstance(x, numbers.Integral) or (isinstance(x, numbers.Real)
                                               and float(x).is_integer())


def _displacement(xi, name: str) -> tuple[int, int]:
    """``xi`` as two Python ints; ValueError naming it ``name`` unless it holds two
    integral values (1.0 passes; 0.5, NaN and inf do not)."""
    if np.shape(xi) != (2,) or not all(_integral(x) for x in xi):
        raise ValueError(f"{name} must be two integers, got {xi}")
    return int(xi[0]), int(xi[1])


def _size(n, name: str) -> int:
    """``n`` as a Python int; ValueError naming it ``name`` unless it is an integral
    value of at least 2, the least torus dimension (8.0 passes; 8.5, NaN and inf do
    not)."""
    if not (_integral(n) and n >= 2):
        raise ValueError(f"{name} must be an integer >= 2, got {n}")
    return int(n)


def _count(k, name: str, least: int = 0) -> int:
    """``k`` as a Python int; ValueError naming it ``name`` unless it is an integral value
    of at least ``least``, a count of steps or items (3.0 passes; 2.5, NaN and inf do
    not)."""
    if not _integral(k):
        raise ValueError(f"{name} must be an integer, got {k}")
    if k < least:
        raise ValueError(f"{name} must be {f'>= {least}' if least else 'non-negative'}, "
                         f"got {k}")
    return int(k)


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
    n = space.dim
    a, b = _displacement(xi, "xi")
    q = np.arange(n)
    out = np.zeros((n, n), dtype=complex)
    out[(q + a) % n, q] = _translation_diagonal(space, a, b)
    return out


def _translation_diagonal(space: TorusSpace, a: int, b: int) -> np.ndarray:
    """T_(a,b)'s one cyclic diagonal a: t[q] = T[q + a, q]."""
    n = space.dim
    diag = space.tau_power(2 * (b % n) * np.arange(n))
    phase = space.tau_power((a * b) % (2 * n))
    return phase * diag


def hermitian_f(space: TorusSpace, xi) -> np.ndarray:
    """Hermitian combination F_xi = (T_xi - T_xi^dag) / 2i.

    F_(0,1) is the sine-of-position observable and F_(1,0) the
    sine-of-momentum one; those two are exactly the operators returned by
    :func:`sine_position` and :func:`sine_momentum`.
    """
    return _write_f(space, xi, np.zeros((space.dim, space.dim), dtype=complex))


def _f_diagonals(space: TorusSpace, xi) -> tuple[int, np.ndarray, np.ndarray]:
    """F_xi on its two cyclic diagonals, in O(N): (j, lower, upper) with j = xi_q mod N,
    lower[q] = F[q + j, q] and upper[q] = F[q, q + j], each entry (T[r, c] -
    conj(T[c, r])) / 2i from T_xi's one diagonal, as the dense formula.  Where
    diagonal j is its own transpose (j = 0 or N/2) T[q, q + j] is T's own entry,
    and lower and upper name the same entries with the same bits."""
    n = space.dim
    a, b = _displacement(xi, "xi")
    t = _translation_diagonal(space, a, b)
    j = a % n
    t_up = np.roll(t, -j) if 2 * j % n == 0 else np.zeros(n, dtype=complex)
    return j, (t - t_up.conj()) / 2j, (t_up - t.conj()) / 2j


def _f_defect(space: TorusSpace, xi) -> float:
    """:func:`hermiticity_defect` of F_xi, read from its two cyclic diagonals in O(N)
    (every other entry is zero)."""
    _, lower, upper = _f_diagonals(space, xi)
    return float(np.abs(lower - upper.conj()).max())


def _write_f(space: TorusSpace, xi, out: np.ndarray, rows: int | None = None,
             scale=np.asarray) -> np.ndarray:
    """F_xi's entries on rows 0 .. ``rows`` - 1 (every row by default), each mapped by
    ``scale``, written into ``out``, whose other entries are left: the two cyclic
    diagonals of :func:`_f_diagonals`, so no N x N temporary is made."""
    n = space.dim
    rows = n if rows is None else rows
    j, lower, upper = _f_diagonals(space, xi)
    lower, upper = scale(lower), scale(upper)
    q = np.arange(n)
    r = (q + j) % n
    held = r < rows
    out[r[held], q[held]] = lower[held]
    out[q[:rows], r[:rows]] = upper[:rows]
    return out


def sine_position(space: TorusSpace) -> np.ndarray:
    """(U - U^dag)/2i: diagonal in position with entries sin(2 pi q / N)."""
    return hermitian_f(space, (0, 1))


def sine_momentum(space: TorusSpace) -> np.ndarray:
    """(V - V^dag)/2i: diagonal in momentum, circulant in position."""
    return hermitian_f(space, (1, 0))


def _cyclic_diagonals(a: np.ndarray) -> np.ndarray:
    """d[k, q] = a[(q + k) % n, q]: cyclic diagonal k as row k."""
    n = a.shape[0]
    q = np.arange(n)
    return a[(q[None, :] + q[:, None]) % n, q[None, :]]


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
    d = _finite(_cyclic_diagonals(_operator(a, n, "operator")), "operator")
    c = np.fft.fft(d, axis=1) / n
    j = np.arange(n)
    c *= space.tau_power(-(j[:, None] * j[None, :]))
    return c


def chord_inverse(space: TorusSpace, c: np.ndarray) -> np.ndarray:
    """Rebuild the operator from its translation expansion c[chi_q, chi_p], an N x N
    array of finite coefficients."""
    n = space.dim
    c = _finite(_operator(c, n, "chord coefficients"), "chord coefficients")
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
    for name, value in (("q0", q0), ("p0", p0)):
        if not (isinstance(value, numbers.Real) and np.isfinite(value)):
            raise ValueError(f"{name} must be a finite real number, got {value}")
    n = space.dim
    x = np.arange(n) / n
    psi = np.zeros(n, dtype=complex)
    for m in range(-4, 5):
        psi += np.exp(-np.pi * n * (x - q0 + m) ** 2 - 2j * np.pi * n * p0 * (x + m))
    return psi / np.linalg.norm(psi)
