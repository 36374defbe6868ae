"""Property tests of the frame-fused Heisenberg step and its channel.

Every case is checked against references that share no code with the step:
the materialized unitary, the literal translation sum of the dephasing
channel, and the commutator form of C(t).  The channel is also checked for
the properties of a unital quantum channel.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from otoclab.coarse_graining import apply_dephasing_dense, build_kernel, channel_step, evolve
from otoclab.maps import AS_PRINTED, CORRESPONDENCE, cat_map, harper_map, materialize, quantize, standard_map
from otoclab.otoc import otoc_series, otoc_via_commutator
from otoclab.phase_space import (MOMENTUM, POSITION, TorusSpace, change_basis,
                                 hermitian_f, hermiticity_defect, sine_momentum, sine_position)

FAMILIES = (cat_map, standard_map, harper_map)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


def random_matrix(n, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (raw + raw.conj().T) / 2 if hermitian else raw


@st.composite
def channels(draw, dims=st.integers(2, 24), epsilons=st.none() | st.floats(0.0, 3.0)):
    """A quantized map of any family and kick mode, plus a kernel or None."""
    space = TorusSpace(draw(dims))
    family = draw(st.sampled_from(FAMILIES))
    umap = quantize(family(draw(st.floats(-2.0, 2.0))), space,
                    draw(st.sampled_from((CORRESPONDENCE, AS_PRINTED))))
    eps = draw(epsilons)
    return umap, None if eps is None else build_kernel(space, eps)


def oracle_step(umap, kernel, a):
    u = materialize(umap)
    out = u.conj().T @ a @ u
    if kernel is not None and kernel.epsilon > 0:
        out = apply_dephasing_dense(kernel, out)
    return out


@PROPERTY
@given(channels(), st.integers(0, 2**32 - 1))
def test_evolve_matches_dense_oracle(channel, seed):
    umap, kernel = channel
    a = random_matrix(umap.dim, seed)
    expected = a
    for t, at in enumerate(evolve(umap, kernel, a, 3)):
        assert np.abs(change_basis(at, MOMENTUM, POSITION) - expected).max() < 1e-12
        expected = oracle_step(umap, kernel, expected)
    assert t == 3


@PROPERTY
@given(channels(), st.integers(0, 2**32 - 1))
def test_channel_step_matches_dense_oracle(channel, seed):
    umap, kernel = channel
    a = random_matrix(umap.dim, seed)
    assert np.abs(channel_step(umap, kernel, a) - oracle_step(umap, kernel, a)).max() < 1e-12


@PROPERTY
@given(channels(), st.integers(0, 2**32 - 1))
def test_channel_unital_trace_and_hermiticity_preserving_contractive(channel, seed):
    umap, kernel = channel
    n = umap.dim
    ident = np.eye(n, dtype=complex)
    assert np.abs(channel_step(umap, kernel, ident) - ident).max() < 1e-12
    a = random_matrix(n, seed)
    scale = np.linalg.norm(a)
    assert abs(np.trace(channel_step(umap, kernel, a)) - np.trace(a)) < 1e-12 * scale
    h = random_matrix(n, seed, hermitian=True)
    assert hermiticity_defect(channel_step(umap, kernel, h)) < 1e-12 * scale
    traceless = h - np.trace(h) / n * ident
    before = np.linalg.norm(traceless)
    assert np.linalg.norm(channel_step(umap, kernel, traceless)) <= before * (1 + 1e-12)


def static_observables(space, seed):
    b = random_matrix(space.dim, seed, hermitian=True)
    return {"sine_momentum": sine_momentum(space), "sine_position": sine_position(space),
            "F(1,1)": hermitian_f(space, (1, 1)), "dense": b / np.linalg.norm(b)}


@PROPERTY
@given(channels(dims=st.just(16)), st.sampled_from(("sine_momentum", "sine_position", "F(1,1)", "dense")),
       st.integers(0, 2**32 - 1))
def test_otoc_series_matches_commutator_oracle(channel, b_name, seed):
    umap, kernel = channel
    space = umap.space
    a = random_matrix(16, seed + 1, hermitian=True)
    a = a * np.sqrt(16) / np.linalg.norm(a)
    b = static_observables(space, seed)[b_name]
    series = otoc_series(umap, a, b, 5, kernel=kernel)
    oracle = otoc_via_commutator(umap, a, b, 5, kernel=kernel)
    assert np.abs(series.c - oracle).max() < 1e-10


displacements = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


@PROPERTY
@given(channels(epsilons=st.none() | st.just(0.0) | st.floats(0.0, 3.0)), displacements,
       displacements | st.none(), st.integers(0, 2**32 - 1))
def test_otoc_contraction_matches_commutator_oracle(channel, xi, chi, seed):
    """O1 = <BA, AB>_F and O2 = ||AB||_F^2 in row blocks, for any N from 2 to 24
    (odd and prime N included), against the commutator form: B = F_chi on two
    cyclic diagonals (one or none when they coincide or vanish) or, for chi
    None, a dense Hermitian B on all N."""
    umap, kernel = channel
    space = umap.space
    a = hermitian_f(space, xi)
    if chi is None:
        b = random_matrix(space.dim, seed, hermitian=True) / np.sqrt(space.dim)
    else:
        b = hermitian_f(space, chi)
    series = otoc_series(umap, a, b, 5, kernel=kernel)
    oracle = otoc_via_commutator(umap, a, b, 5, kernel=kernel)
    assert np.abs(series.c - oracle).max() < 1e-10
