"""Classical diagnostics: Lyapunov exponents, cat monodromy powers, Ehrenfest time."""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .maps import ClassicalMapSpec, _advance, classical_step
from .phase_space import _count, _integral, _size

__all__ = [
    "LyapunovEstimate",
    "lyapunov",
    "ehrenfest_time",
    "CAT_LYAPUNOV",
]

# ln((3 + sqrt(5))/2), the unperturbed cat exponent
CAT_LYAPUNOV = float(np.log((3.0 + np.sqrt(5.0)) / 2.0))

_FIXED_POINT_TOL = 1e-12
_WARMUP = 100  # tangent-vector alignment steps before log growth is accumulated


def _cat_power(t: int, n: int = 0) -> tuple[int, int, int, int]:
    """Entries (a, b, c, d) of M^t, M = (2 1; 1 1), by square-and-multiply in Python
    ints: exact when n = 0, reduced mod n after every product when n > 0, so each
    entry stays below n."""
    if not (_integral(t) and t >= 0):
        raise ValueError(f"power must be a non-negative integer, got {t}")
    ra, rb, rc, rd = 1, 0, 0, 1
    ba, bb, bc, bd = 2, 1, 1, 1
    e = int(t)
    while e:
        if e & 1:
            ra, rb, rc, rd = (ra * ba + rb * bc, ra * bb + rb * bd,
                              rc * ba + rd * bc, rc * bb + rd * bd)
        ba, bb, bc, bd = (ba * ba + bb * bc, ba * bb + bb * bd,
                          bc * ba + bd * bc, bc * bb + bd * bd)
        if n:
            ra, rb, rc, rd, ba, bb, bc, bd = (x % n for x in (ra, rb, rc, rd, ba, bb, bc, bd))
        e >>= 1
    return ra, rb, rc, rd


@dataclass(frozen=True)
class LyapunovEstimate:
    lam: float
    lam_generalized: float
    n_trajectories: int
    t_horizon: int
    standard_error: float
    seed: int
    resampled: int


def lyapunov(spec: ClassicalMapSpec, n_traj: int = 100, t_horizon: int = 1000,
             seed: int = 0) -> LyapunovEstimate:
    """Lyapunov exponents from tangent-vector renormalization.

    Initial conditions are drawn uniformly on [0,1)^2 with one generator per
    trajectory (spawned from ``seed``), so the result is independent of
    evaluation order.  Each step makes one call to the map, which returns the
    image and the slopes of its two shears, from which the tangent vector
    v = (v_q, v_p) is advanced as ((1 + g' f') v_q + g' v_p, f' v_q + v_p)
    (Benettin, Galgani, Giorgilli & Strelcyn, Meccanica 15, 1980).  Tangent
    vectors are renormalized every step with the log growth accumulated only
    after 100 alignment steps; that keeps the transient from biasing the mean.  ``lam`` averages
    the per-trajectory log growth rates; ``lam_generalized`` averages the
    growth factors before taking the logarithm, so it is never below ``lam``.
    Trajectories that start within 1e-12 of a fixed point are redrawn and
    counted.  Every map's shear slopes are at most s = 1 + 4 pi^2 |k| in size, so a
    step takes |v|^2 from 1 to at most (1 + s)^4; a map parameter for which that
    bound overflows is refused.
    """
    n_traj, t_horizon = _count(n_traj, "n_traj", 1), _count(t_horizon, "t_horizon", 10)
    seed = _count(seed, "seed")
    if not 2.0 + 4.0 * np.pi ** 2 * abs(spec.k) < sys.float_info.max ** 0.25:
        raise ValueError(f"map parameter {spec.k} is too large: the tangent vector's "
                         f"squared norm, up to (2 + 4 pi^2 |k|)^4, overflows")
    points = np.empty((n_traj, 2))
    angles = np.empty(n_traj)
    resampled = 0
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_traj)):
        rng = np.random.default_rng(child)
        x = rng.random(2)
        while _near_fixed_point(spec, x):
            x = rng.random(2)
            resampled += 1
        points[i] = x
        angles[i] = rng.random() * 2.0 * np.pi

    q, p = points[:, 0], points[:, 1]
    vq, vp = np.cos(angles), np.sin(angles)
    log_growth = np.zeros(n_traj)
    for t in range(_WARMUP + t_horizon):
        q, p, df, dg = _advance(spec, q, p)
        vq, vp = (1.0 + dg * df) * vq + dg * vp, df * vq + vp
        norms = np.sqrt(vq * vq + vp * vp)
        vq /= norms
        vp /= norms
        if t >= _WARMUP:
            log_growth += np.log(norms)

    rates = log_growth / t_horizon
    lam = float(rates.mean())
    stderr = float(rates.std(ddof=1) / np.sqrt(n_traj)) if n_traj > 1 else 0.0
    lam_gen = float((_logsumexp(log_growth) - np.log(n_traj)) / t_horizon)
    if lam != 0.0 and stderr > 0.05 * abs(lam):
        warnings.warn(
            f"Lyapunov standard error {stderr:.3g} exceeds 5% of the estimate {lam:.3g}; "
            "increase n_traj or t_horizon", stacklevel=2)
    return LyapunovEstimate(lam, lam_gen, n_traj, t_horizon, stderr, seed, resampled)


def _logsumexp(a: np.ndarray) -> np.floating:
    """log(sum(exp(a))) of a finite 1D array, bit for bit as scipy.special.logsumexp
    computes it: the maxima are counted and taken out, the scaled rest goes through log1p."""
    a_max = a.max()
    is_max = a == a_max
    count = float(np.count_nonzero(is_max))
    rest = np.exp(np.where(is_max, -np.inf, a) - a_max).sum()
    return np.log1p(rest / count) + np.log(count) + a_max


def _near_fixed_point(spec: ClassicalMapSpec, x) -> bool:
    q1, p1 = classical_step(spec, x)
    dq = min(abs(q1 - x[0]), 1.0 - abs(q1 - x[0]))
    dp = min(abs(p1 - x[1]), 1.0 - abs(p1 - x[1]))
    return max(dq, dp) < _FIXED_POINT_TOL


def ehrenfest_time(n: int, lam: float) -> float:
    """ln(N) / lambda, the log time separating growth from relaxation; ValueError unless
    the dimension ``n`` is an integer >= 2 and ``lam`` is positive and finite."""
    n = _size(n, "dimension n")
    if not 0 < lam < np.inf:
        raise ValueError(f"Lyapunov exponent lam must be positive and finite, got {lam}")
    return float(np.log(n) / lam)
