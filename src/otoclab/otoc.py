"""Out-of-time-ordered correlator series and the exact cat-map results.

The correlator of Hermitian A, B under a one-step propagator is

    C(t) = <[A(t), B] [A(t), B]^dag> = -2 Re[O1(t) - O2(t)]
    O1(t) = <A(t) B A(t) B>,   O2(t) = <A(t)^2 B^2>

with the infinite-temperature average <.> = Tr(.)/N.  All values reported
here carry that 1/N normalization, so O2 = 1/4 and C saturates at 1/2 for
the sine observables.  :func:`otoclab.coarse_graining.evolve` yields A(t)
in the momentum frame, where B has K nonzero cyclic diagonals (1 for the sine
of momentum, 2 for any other F_xi, N if dense): W = A(t) B is K shifted,
scaled copies of A(t), O1 = Tr(W W)/N and, A and B being Hermitian,
O2 = ||W||_F^2/N.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import coarse_graining
from .classical import CAT_LYAPUNOV, _cat_power, cat_matrix_power
from .maps import CAT, ClassicalMapSpec, QuantumMap, heisenberg_conjugate
from .phase_space import (MOMENTUM, POSITION, OperatorMatrix, _change_frame, _cyclic_diagonals,
                          change_basis, hermiticity_defect, symplectic_product)

__all__ = [
    "OtocSeries",
    "heisenberg_evolve",
    "otoc_series",
    "otoc_via_commutator",
    "analytic_cat_otoc",
    "otoc_family_linear",
    "fit_lyapunov_from_otoc",
    "loglinear_fit",
]

_HERMITIAN_TOL = 1e-10
_DIAG_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OtocSeries:
    """Per-step record of C(t), O1(t), O2(t)."""

    t: np.ndarray
    c: np.ndarray
    o1: np.ndarray
    o2: np.ndarray

    @property
    def o1_abs(self) -> np.ndarray:
        return np.abs(self.o1)


def heisenberg_evolve(a: OperatorMatrix, umap: QuantumMap, steps: int) -> OperatorMatrix:
    """U^dag^steps A U^steps via FFT conjugation, O(N^2 log N) per step."""
    if a.dim != umap.dim:
        raise ValueError(f"dimension mismatch: operator {a.dim}, map {umap.dim}")
    if steps == 0:  # exactly A, without a rounding round trip through the momentum frame
        return a
    *_, at = coarse_graining.evolve(umap, None, a, steps)
    return OperatorMatrix(_change_frame(at, POSITION))


def otoc_series(umap: QuantumMap, a: OperatorMatrix, b: OperatorMatrix, t_max: int,
                kernel: "coarse_graining.CoarseGrainKernel | None" = None) -> OtocSeries:
    """Compute C(t), O1(t), O2(t) for t = 0 .. t_max, with A(t) advanced by
    the channel of ``kernel`` (unitarily when None).  A and B must be Hermitian.
    """
    for name, op in (("A", a), ("B", b)):
        defect = hermiticity_defect(op)
        if defect > _HERMITIAN_TOL:
            raise ValueError(f"operator {name} is not Hermitian (defect {defect:.2e})")
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    n = umap.dim
    # B in the momentum frame as its cyclic diagonals d[j, q] = B[q + j, q], noise dropped
    d = _cyclic_diagonals(change_basis(umap.space, b.entries, POSITION, MOMENTUM))
    size = np.abs(d).max(axis=1)
    shifts = np.flatnonzero(size > _DIAG_TOL * max(size.max(), 1.0))
    d = d[shifts]
    w = np.zeros((n, n), dtype=complex)
    o1 = np.empty(t_max + 1, dtype=complex)
    o2 = np.empty(t_max + 1)
    for t, at in enumerate(coarse_graining.evolve(umap, kernel, a, t_max)):
        # W = A(t) B, column q being sum_j A(t)[:, q + j] d[j, q] with indices mod N
        for k, j in enumerate(shifts):
            for cols, src in ((slice(0, n - j), slice(j, n)), (slice(n - j, n), slice(0, j))):
                if k == 0:
                    np.multiply(at[:, src], d[k, cols], out=w[:, cols])
                else:
                    w[:, cols] += at[:, src] * d[k, cols]
        o1[t] = np.einsum("ij,ji->", w, w) / n
        o2[t] = (np.einsum("ij,ij->", w.real, w.real) + np.einsum("ij,ij->", w.imag, w.imag)) / n
    c = -2.0 * (o1 - o2).real
    return OtocSeries(np.arange(t_max + 1), c, o1, o2)


def otoc_via_commutator(umap: QuantumMap, a: OperatorMatrix, b: OperatorMatrix,
                        t_max: int, kernel=None, force: bool = False) -> np.ndarray:
    """Slow-path oracle: C(t) from the materialized commutator.

    Evaluates Tr([A(t), B][A(t), B]^dag)/N with dense products, independent
    of the O1/O2 decomposition.  Cost O(N^3) per step, refused above N = 64
    unless forced.
    """
    if umap.dim > 64 and not force:
        raise ValueError("commutator oracle is O(N^3) per step; pass force=True above N=64")
    at = a.entries.copy()
    bb = b.entries
    dephase = kernel is not None and kernel.epsilon > 0
    c = np.empty(t_max + 1)
    for t in range(t_max + 1):
        comm = at @ bb - bb @ at
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
    c_growth_approx: float


def analytic_cat_otoc(t: int, n: int) -> CatOtocPoint:
    """Closed-form OTOC of the unperturbed cat map for the sine pair.

    C(t) = sin^2(pi a_t / N), O1(t) = cos(2 pi a_t / N)/4, O2 = 1/4, where
    a_t is the top-left integer entry of the t-th cat matrix power, computed
    mod N in O(log t) so large t stays exact.  The last field is the
    small-angle growth approximation (pi^2/N^2) e^{2 lam t}, inf once the
    exponential overflows.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if n < 2:
        raise ValueError("n must be >= 2")
    angle = np.pi * _cat_power(t, n)[0] / n
    c = float(np.sin(angle) ** 2)
    o1 = float(np.cos(2 * angle) / 4.0)
    with np.errstate(over="ignore"):
        approx = float((np.pi / n) ** 2 * np.exp(2.0 * CAT_LYAPUNOV * t))
    return CatOtocPoint(c, o1, 0.25, approx)


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


def fit_lyapunov_from_otoc(series: OtocSeries, window: tuple[int, int],
                           t_ehrenfest: float | None = None) -> float:
    """Half the log-linear growth rate of C(t) over [window[0], window[1]].

    Warns when the fit quality drops below R^2 = 0.98.  When the Ehrenfest
    time is supplied the window is checked against [1, t_E - 1].
    """
    lo, hi = int(window[0]), int(window[1])
    if lo < 1:
        raise ValueError("growth-rate window must start at t >= 1")
    if t_ehrenfest is not None and hi > t_ehrenfest - 1:
        raise ValueError(f"window end {hi} exceeds the growth regime bound {t_ehrenfest - 1:.2f}")
    mask = (series.t >= lo) & (series.t <= hi)
    if mask.sum() < 2:
        raise ValueError(f"window [{lo}, {hi}] selects fewer than two samples")
    cvals = series.c[mask]
    if np.any(cvals <= 0):
        raise ValueError("C(t) must be positive inside the growth window")
    slope, _, r2 = loglinear_fit(series.t[mask], cvals)
    if r2 < 0.98:
        warnings.warn(f"Lyapunov fit R^2 = {r2:.4f} below 0.98; window may span a regime change",
                      stacklevel=2)
    return 0.5 * slope
