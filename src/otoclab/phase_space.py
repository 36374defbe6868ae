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
frames.  An operator of definite parity, x[-i, -j] = sign x[i, j], is fixed by
its rows 0 .. N/2, the package's one parity-sector layout, whose index rules
:func:`_sector` derives: the OTOC series evolves R on those rows, and the
Krylov solver stores its directions as slices of them.  The channel keeps
parity when its kick phases are mirror-symmetric
(:func:`~otoclab.coarse_graining._keeps_parity`).  Given the sign,
:func:`_change_frame` runs :func:`_sector_frame`, the real frame change of R,
with its half spectrum in the rows beyond N/2; :func:`_imag_from_real`
rebuilds Im Z with one transpose pass, and :func:`_mirror_rows` fills the rows
beyond N/2 where a whole operator is needed.

A run's evolving N x N buffer comes from :func:`_working`.  At N >= 512 its rows
are padded with (4 - N) mod 8 entries, so that the row stride is an odd number
of 64-byte lines: the lines of a column pass then spread over all the L1 sets
instead of a few.  The buffer is the N x N view of an N x width array with
64-byte aligned rows; at an N whose stride is already an odd number of lines
(N = 4 mod 8) it is plain.  Below 512 the half matrix sits in L2 and the
padding only adds loop overhead.  A page of the buffer is mapped only when it
is first written.  A parity-sector OTOC run writes rows 0 .. N/2 and the half
spectrum after them (:func:`_half_spectrum`), and the rest of the buffer,
about N/4 rows, is never touched.  The elementwise passes of a step run over
whole padded rows (:func:`_whole_rows`), one contiguous block per part, with
factors that are finite on the pad, so the pad stays zero.  Every line and
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


def _working(n: int) -> np.ndarray:
    """An N x N complex buffer, laid out as the module notes say: the N x N view of an
    N x :func:`_row_width` array with 64-byte aligned rows, allocated zeroed, when the
    width exceeds N, so the pad is zero with no pass over it; plain and uninitialized
    otherwise.  Either way a page is mapped only when it is first written."""
    width = _row_width(n)
    if width == n:
        return np.empty((n, n), dtype=complex)
    size = n * width * 16
    raw = np.zeros(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(complex).reshape(n, width)[:, :n]


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


def _change_frame(x: np.ndarray, to: str, sign: int = 0) -> np.ndarray:
    """In place: F^dag x F to momentum, F x F^dag to position.

    Without ``sign`` x holds complex entries: the axis-0 FFT runs over fixed
    parts of the columns and the axis-1 FFT over parts of the rows
    (:func:`_split`); each line is transformed alone, so the bits do not depend
    on the part count.  A nonzero ``sign`` is the parity of the operator, held as R =
    Re Z in the parity sector, and the frame change is :func:`_sector_frame`'s real one.
    """
    if sign:
        return _sector_frame(x, to, sign)
    first, second = (np.fft.fft, np.fft.ifft) if to == MOMENTUM else (np.fft.ifft, np.fft.fft)
    n = x.shape[0]
    _split(lambda _, s: first(x[:, s], axis=0, out=x[:, s]), n)
    _split(lambda _, s: second(x[s], axis=1, out=x[s]), n)
    return x


def _sector(n: int, sign: int) -> tuple[int, slice, slice]:
    """The parity sector's index rules at N = n, derived here alone: (rows, paired,
    fixed).  Line r mirrors to N - r (mod N); an operator of parity ``sign`` is fixed
    by its ``rows`` = N/2 + 1 rows 0 .. N/2 (N/2 rounded down).  ``paired`` slices the
    lines 1 .. N - N/2 - 1, whose mirrors lie beyond N/2, and ``fixed`` the
    self-mirrored lines, 0 and N/2 at even N and 0 alone at odd N, rows and columns
    alike, in either sector.  Without one (``sign`` 0) rows = N, all paired, none fixed."""
    if not sign:
        return n, slice(0, n), slice(0, 0)
    h = n // 2
    return h + 1, slice(1, n - h), slice(0, h + 1, n - h)  # 0, and N/2 = N - N/2 at even N


def _sector_frame(x: np.ndarray, to: str, sign: int) -> np.ndarray:
    """The frame change of Z = (1 - i)A, A Hermitian of parity ``sign``, from
    rows 0 .. N/2 of x to rows 0 .. N/2 of Re x, the new R; Im x is left stale
    (:func:`_imag_from_real` rebuilds it).

    For real R of parity s the transform G = F^dag R F is real (s = 1) or
    imaginary (s = -1), and the new R is Re G - (Im G)^T.  In the odd sector
    rows 0 .. N/2 of it are irfft(-+i rfft(R[:N/2 + 1], axis=1), n=N, axis=0),
    minus to momentum and plus to position, the irfft written into the rows of
    Re x through their transposed view.  The even sector reads Im Z = -R^T
    instead, with the factor -1 both ways.  Each rfft covers a row and each irfft
    a column of the (N/2 + 1)^2 half spectrum H (:func:`_half_spectrum`), in
    fixed parts (:func:`_split`), so the bits do not depend on the part count;
    irfft reads only the half spectrum, which is all the sector holds.
    """
    n = x.shape[0]
    z = x[:_sector(n, sign)[0]]
    spectrum = _half_spectrum(x)
    factor = (-1j if to == MOMENTUM else 1j) if sign < 0 else -1
    source, rows_out = (z.real if sign < 0 else z.imag), z.real.T

    def rows(_, s):
        np.fft.rfft(source[s], axis=1, out=spectrum[s])
        spectrum[s] *= factor

    _split(rows, n, lines=z.shape[0])
    _split(lambda _, s: np.fft.irfft(spectrum[:, s], n=n, axis=0, out=rows_out[:, s]), n,
           lines=z.shape[0])
    return x


def _half_spectrum(x: np.ndarray) -> np.ndarray:
    """(N/2 + 1)^2 complex scratch for :func:`_sector_frame`, carved from the memory
    of x's rows beyond N/2 with their pad (:func:`_whole_rows`), which the sector does
    not hold; a new array where they are too few (N < 10 unpadded) or not contiguous."""
    rows = _sector(x.shape[0], 1)[0]  # the same in either sector
    beyond = _whole_rows(x)[rows:]
    if beyond.size < rows ** 2 or not beyond.flags.c_contiguous:
        return np.empty((rows, rows), dtype=complex)
    return beyond.reshape(-1)[:rows ** 2].reshape(rows, rows)


def _imag_from_real(x: np.ndarray, sign: int) -> None:
    """Im Z = -R^T on the sector's rows of x (:func:`_sector`) from R = Re Z there, for
    parity ``sign``: Im Z[r, c] = -R[c, r] for c < rows and -sign R[N - c, -r] beyond,
    through strided views in fixed parts of the rows, so no part reads another's writes."""
    n = x.shape[0]
    rows, paired, _ = _sector(n, sign)
    r, imag = x[:rows].real, x[:rows].imag
    mirrors = r[paired][::-1]  # rows N - c for the columns c = rows .. N - 1

    def fill(_, s):
        a, b = s.start, s.stop
        np.negative(r[:, a:b].T, out=imag[a:b, :rows])
        if a == 0:  # row 0 reads column 0
            np.multiply(mirrors[:, 0], -sign, out=imag[0, rows:])
            a = 1
        if a < b:  # rows a .. b - 1 read columns N - a down to N - b + 1
            np.multiply(mirrors[:, n - a:n - b:-1].T, -sign, out=imag[a:b, rows:])

    _split(fill, n, lines=rows)


def _mirror_rows(x: np.ndarray, rows: slice, sign: int) -> None:
    """x[r, c] = sign x[-r, -c] for the ``rows`` r within N/2 + 1 .. N - 1 and every c,
    from their mirror rows N - r."""
    n = x.shape[0]
    src = slice(n - rows.start, n - rows.stop, -1)
    np.multiply(x[src, 0], sign, out=x[rows, 0])
    np.multiply(x[src, :0:-1], sign, out=x[rows, 1:])


_SECTOR_NAMES = {1: "even", -1: "odd", 0: "none"}


def _squared_norms(x: np.ndarray, image) -> np.ndarray:
    """||x||^2, ||x - Px||^2 and ||x + Px||^2 (Frobenius), ``image(rows)`` those rows of
    Px, summed a block of rows at a time, so no N x N temporary is made."""
    norms = np.zeros(3)
    for i in range(0, x.shape[0], _ROW_BLOCK):
        rows = slice(i, i + _ROW_BLOCK)
        block, other = x[rows], image(rows)
        norms += [np.vdot(y, y).real for y in (block, block - other, block + other)]
    return norms


def _parity(x: np.ndarray) -> int:
    """+1 or -1 when x[-i, -j] = +-x[i, j] to 1e-12 relative in the Frobenius norm,
    else 0 (:func:`_squared_norms`)."""
    neg = -np.arange(x.shape[0]) % x.shape[0]
    norms = _squared_norms(x, lambda rows: x[np.ix_(neg[rows], neg)])
    limit = 1e-24 * norms[0]
    return next((s for s, d in ((1, norms[1]), (-1, norms[2])) if d <= limit), 0)


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


def _write_f(space: TorusSpace, xi, out: np.ndarray, rows: int | None = None) -> np.ndarray:
    """F_xi's entries on rows 0 .. ``rows`` - 1 (every row by default) written into
    ``out``, whose other entries are left: the two cyclic diagonals of
    :func:`_f_diagonals`, so no N x N temporary is made."""
    n = space.dim
    rows = n if rows is None else rows
    j, lower, upper = _f_diagonals(space, xi)
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
