"""Classical torus maps and their quantizations as kick-DFT-kick unitaries.

Three map families are supported on the unit torus (q, p in [0, 1)):

* perturbed Arnold cat map
      p' = p + q - 2 pi k sin(2 pi q)
      q' = q + p' + 2 pi k sin(2 pi p')
* Chirikov standard map
      p' = p + (K / 2 pi) sin(2 pi q)
      q' = q + p'
* Harper map (kicked Harper, one kick strength K for both kicks)
      p' = p - K sin(2 pi q)
      q' = q + K sin(2 pi p')

Each map's formulas are written once, in one private step that returns the
image and the two shear slopes that fix its exact tangent map:
``classical_step`` and ``jacobian`` read it, and ``classical.lyapunov`` calls
it once per iteration for both.

Each quantum map is a product of two diagonal kick factors, one in the
position basis and one in the momentum basis, applied with FFTs and never
materialized unless asked for.  The kick phases are calibrated so that a
narrow wavepacket follows the classical step: under the chord/DFT
conventions of :mod:`otoclab.phase_space` that calibration fixes both the
sign and the magnitude of every phase (a sign flip on either factor yields
the propagator of an elliptic, non-chaotic map).  See ``kick_prefactor``
for the as-printed alternative coefficients of the nonlinear kicks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_space import TorusSpace, _finite, _operator

__all__ = [
    "ClassicalMapSpec",
    "cat_map",
    "standard_map",
    "harper_map",
    "QuantumMap",
    "classical_step",
    "jacobian",
    "quantize",
    "kick_prefactor",
    "apply_map",
    "materialize",
    "heisenberg_conjugate",
]

CAT = "cat"
STANDARD = "standard"
HARPER = "harper"

CORRESPONDENCE = "correspondence"
AS_PRINTED = "as_printed"

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ClassicalMapSpec:
    """Map family plus its kick strength ``k``: the cat perturbation k, the
    standard-map K, or the Harper K of both kicks."""

    kind: str
    k: float

    def __post_init__(self) -> None:
        if self.kind not in (CAT, STANDARD, HARPER):
            raise ValueError(f"unknown map kind {self.kind!r}")
        if not math.isfinite(self.k):
            raise ValueError("map parameter must be finite")


def cat_map(k: float = 0.0) -> ClassicalMapSpec:
    return ClassicalMapSpec(CAT, float(k))


def standard_map(kk: float) -> ClassicalMapSpec:
    return ClassicalMapSpec(STANDARD, float(kk))


def harper_map(k: float) -> ClassicalMapSpec:
    return ClassicalMapSpec(HARPER, float(k))


def _advance(spec: ClassicalMapSpec, q, p):
    """One step from (q, p) reduced mod 1: the image (q', p') and the slopes f', g'.

    Every map is two shears, p' = p + f(q) then q' = q + g(p'), so the exact
    Jacobian d(q', p')/d(q, p) is ((1 + g' f', g'), (f', 1)) with f' taken at q
    and g' at p'; it broadcasts over q, p arrays.
    """
    q = np.mod(np.asarray(q, dtype=float), 1.0)
    p = np.mod(np.asarray(p, dtype=float), 1.0)
    if spec.kind == CAT:
        p1 = np.mod(p + q - _TWO_PI * spec.k * np.sin(_TWO_PI * q), 1.0)
        df = 1.0 - _TWO_PI**2 * spec.k * np.cos(_TWO_PI * q)
        q1 = np.mod(q + p1 + _TWO_PI * spec.k * np.sin(_TWO_PI * p1), 1.0)
        dg = 1.0 + _TWO_PI**2 * spec.k * np.cos(_TWO_PI * p1)
    elif spec.kind == STANDARD:
        p1 = np.mod(p + spec.k / _TWO_PI * np.sin(_TWO_PI * q), 1.0)
        df = spec.k * np.cos(_TWO_PI * q)
        q1 = np.mod(q + p1, 1.0)
        dg = 1.0
    else:
        p1 = np.mod(p - spec.k * np.sin(_TWO_PI * q), 1.0)
        df = -_TWO_PI * spec.k * np.cos(_TWO_PI * q)
        q1 = np.mod(q + spec.k * np.sin(_TWO_PI * p1), 1.0)
        dg = _TWO_PI * spec.k * np.cos(_TWO_PI * p1)
    return q1, p1, df, dg


def classical_step(spec: ClassicalMapSpec, point):
    """One iteration of the map; accepts scalars or arrays, reduces mod 1."""
    q1, p1, _, _ = _advance(spec, point[0], point[1])
    if q1.ndim == 0:
        return float(q1), float(p1)
    return q1, p1


def jacobian(spec: ClassicalMapSpec, point) -> np.ndarray:
    """Exact 2x2 tangent map of classical_step at the point, det = 1.

    Rows and columns are ordered (q, p).
    """
    _, _, df, dg = _advance(spec, float(point[0]), float(point[1]))
    return np.array([[1.0 + dg * df, dg], [df, 1.0]])


@dataclass(frozen=True, eq=False)
class QuantumMap:
    """One-step unitary stored as its two kick-phase diagonals.

    The propagator is (momentum kick) o (position kick): acting on a state,
    the position-diagonal phases are applied first, then the momentum
    diagonal is applied between a DFT pair.  Dense matrices exist only on
    request via :func:`materialize`.
    """

    space: TorusSpace
    phase_position: np.ndarray
    phase_momentum: np.ndarray
    map_spec: ClassicalMapSpec
    kick_mode: str = CORRESPONDENCE

    @property
    def dim(self) -> int:
        return self.space.dim


def kick_prefactor(spec: ClassicalMapSpec, space: TorusSpace, kick_mode: str = CORRESPONDENCE) -> float:
    """Coefficient of the cosine kick inside each map's phase template.

    cat       kappa = k N            in exp(-2i pi (q^2/2N + kappa cos(2 pi q/N)))
    standard  kappa = N K / (2 pi)   in exp(+i kappa cos(2 pi q/N))
    harper    kappa = N K            in exp(-+i kappa cos(2 pi ./N))

    The cat value is also what a stationary-phase expansion of its classical
    kick demands, so it has no mode switch.  For the standard and Harper maps
    the correspondence-derived values above differ from the literal quantized
    forms usually quoted (exp(-+2i pi N K cos)) by 2 pi factors;
    ``kick_mode="as_printed"`` selects those literal coefficients instead.
    The wavepacket correspondence oracle in the test suite discriminates the
    two calibrations sharply.
    """
    if kick_mode not in (CORRESPONDENCE, AS_PRINTED):
        raise ValueError(f"unknown kick mode {kick_mode!r}")
    n = space.dim
    if spec.kind == CAT:
        return spec.k * n
    if spec.kind == STANDARD:
        return n * spec.k / _TWO_PI if kick_mode == CORRESPONDENCE else _TWO_PI * n * spec.k
    return n * spec.k if kick_mode == CORRESPONDENCE else _TWO_PI * n * spec.k


def quantize(spec: ClassicalMapSpec, space: TorusSpace, kick_mode: str = CORRESPONDENCE) -> QuantumMap:
    """Quantize the map as kick-phase diagonals plus DFT placement.

    The quadratic phases use exact integer reduction of q^2 mod 2N so the
    stored phases stay on the unit circle to machine precision for any N.  The
    cosine is taken at min(q, N - q), so at even N, where (N - q)^2 = q^2 mod
    2N, both phase vectors are exactly mirror-symmetric, v[N - q] = v[q]; Harper's,
    which hold no quadratic phase, are so at every N.  A map parameter whose cosine
    kick coefficient (:func:`kick_prefactor`, times 2 pi for cat) overflows at this N
    is refused.
    """
    n = space.dim
    kappa = kick_prefactor(spec, space, kick_mode)
    if not math.isfinite(_TWO_PI * kappa if spec.kind == CAT else kappa):
        raise ValueError(f"map parameter {spec.k} is too large at N={n}: "
                         f"its cosine kick coefficient overflows")
    idx = np.arange(n)
    quad = np.pi * ((idx * idx) % (2 * n)) / n
    cosine = np.cos(_TWO_PI * np.minimum(idx, n - idx) / n)
    if spec.kind == CAT:
        pos = np.exp(-1j * (quad + _TWO_PI * kappa * cosine))
        mom = np.exp(+1j * (quad - _TWO_PI * kappa * cosine))
    elif spec.kind == STANDARD:
        pos = np.exp(+1j * kappa * cosine)
        mom = np.exp(+1j * quad)
    else:
        pos = mom = np.exp(-1j * kappa * cosine)
    return QuantumMap(space, pos, mom, spec, kick_mode)


def _column_phases(phase: np.ndarray, x: np.ndarray) -> np.ndarray:
    return phase if x.ndim == 1 else phase[:, None]


def _lmul(umap: QuantumMap, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """U @ x (or U^dag @ x) for a vector or matrix x, O(N log N) per column."""
    pos = _column_phases(umap.phase_position, x)
    mom = _column_phases(umap.phase_momentum, x)
    if not adjoint:
        return np.fft.ifft(mom * np.fft.fft(pos * x, axis=0), axis=0)
    return pos.conj() * np.fft.ifft(mom.conj() * np.fft.fft(x, axis=0), axis=0)


def _rmul(x: np.ndarray, umap: QuantumMap) -> np.ndarray:
    """x @ U for a matrix x."""
    return umap.phase_position * np.fft.fft(umap.phase_momentum * np.fft.ifft(x, axis=1), axis=1)


def apply_map(umap: QuantumMap, operand):
    """Multiply a state vector or operator from the left by U.

    Equivalent to the materialized matrix product but costs O(N log N) per
    column.  Operator entries must be written in the position basis.
    """
    x = np.asarray(operand, dtype=complex)
    if x.ndim != 1:
        x = _operator(x, umap.dim, "operand")
    elif x.size != umap.dim:
        raise ValueError(f"dimension mismatch: operand {x.size}, map {umap.dim}")
    return _lmul(umap, x)


def heisenberg_conjugate(umap: QuantumMap, entries: np.ndarray) -> np.ndarray:
    """One Heisenberg step U^dag A U on raw position-basis entries, an N x N array
    of finite values."""
    entries = _finite(_operator(entries, umap.dim, "operator"), "operator")
    return _rmul(_lmul(umap, entries, adjoint=True), umap)


def materialize(umap: QuantumMap) -> np.ndarray:
    """Dense unitary matrix of the map in the position basis."""
    return _lmul(umap, np.eye(umap.dim, dtype=complex))
