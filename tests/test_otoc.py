import tracemalloc
import warnings

import numpy as np
import pytest

from otoclab import otoc, phase_space
from otoclab.classical import CAT_LYAPUNOV, ehrenfest_time
from otoclab.coarse_graining import build_kernel, channel_step, evolve
from otoclab.maps import cat_map, harper_map, quantize, standard_map
from otoclab.otoc import (OtocSeries, analytic_cat_otoc, fit_growth, fit_lyapunov_from_otoc,
                          loglinear_fit, otoc_family_linear, otoc_series, otoc_via_commutator)
from otoclab.phase_space import (MOMENTUM, POSITION, TorusSpace, change_basis,
                                 hermitian_f, sine_momentum, sine_position, translation)
from otoclab.resonances import random_traceless_hermitian


@pytest.fixture(scope="module")
def space64():
    return TorusSpace(64)


@pytest.fixture(scope="module")
def cat64(space64):
    return quantize(cat_map(0.0), space64)


def test_heisenberg_zero_steps_and_identity(space64, cat64):
    """Zero steps yield A itself in the momentum frame; the identity is left
    unchanged by the unitary steps (and by every frame change)."""
    x = sine_position(space64)
    (x0,) = evolve(cat64, None, x, 0)
    assert np.array_equal(x0, change_basis(x, POSITION, MOMENTUM))
    *_, ident = evolve(cat64, None, np.eye(64, dtype=complex), 5)
    assert np.abs(ident - np.eye(64)).max() < 1e-12


def test_heisenberg_hermiticity_preserved(space64, cat64):
    x = sine_position(space64)
    for _ in range(10):
        x = channel_step(cat64, None, x)
    assert np.abs(x - x.conj().T).max() < 1e-10


def test_heisenberg_single_step_covariance(space64, cat64):
    """One step maps the sine pair onto the next translation combination."""
    evolved = channel_step(cat64, None, hermitian_f(space64, (0, 1)))
    assert np.abs(evolved - hermitian_f(space64, (1, 2))).max() < 1e-12
    evolved = channel_step(cat64, None, hermitian_f(space64, (1, 0)))
    assert np.abs(evolved - hermitian_f(space64, (1, 1))).max() < 1e-12


def test_otoc_series_matches_exact_cat_law():
    n = 256
    space = TorusSpace(n)
    series = otoc_series(quantize(cat_map(0.0), space), sine_position(space),
                         sine_momentum(space), 12)
    for t in range(13):
        exact = analytic_cat_otoc(t, n)
        assert abs(series.c[t] - exact.c) < 1e-8
        assert abs(series.o1[t].real - exact.o1) < 1e-8
        assert abs(series.o1[t].imag) < 1e-10
        assert abs(series.o2[t] - 0.25) < 1e-10


def test_otoc_series_decomposition_identity_and_positivity():
    n = 128
    space = TorusSpace(n)
    series = otoc_series(quantize(cat_map(0.02), space), sine_position(space),
                         sine_momentum(space), 15)
    assert np.array_equal(series.c, -2.0 * (series.o1 - series.o2).real)
    assert series.c.min() > -1e-10


def test_otoc_series_rejects_non_hermitian(space64, cat64):
    bad = np.triu(np.ones((64, 64), dtype=complex))
    with pytest.raises(ValueError):
        otoc_series(cat64, bad, sine_momentum(space64), 3)


def test_unitary_o2_constant_for_linear_map():
    n = 256
    space = TorusSpace(n)
    series = otoc_series(quantize(cat_map(0.0), space), sine_position(space),
                         sine_momentum(space), 20)
    assert np.abs(series.o2 - 0.25).max() < 1e-10


def test_unitary_o2_near_constant_for_small_kick():
    # exact constancy holds only for the linear map; the kick adds an O(1/N)
    # transient (see decisions ledger)
    n = 256
    space = TorusSpace(n)
    series = otoc_series(quantize(cat_map(0.02), space), sine_position(space),
                         sine_momentum(space), 20)
    assert np.abs(series.o2 - 0.25).max() < 0.01


def test_saturation_at_one_half_small_n():
    n = 256
    space = TorusSpace(n)
    series = otoc_series(quantize(cat_map(0.02), space), sine_position(space),
                         sine_momentum(space), 20)
    t_e = ehrenfest_time(n, CAT_LYAPUNOV)
    late = series.c[series.t >= int(np.ceil(t_e)) + 3]
    assert abs(late.mean() - 0.5) < 0.075


def test_near_cancellation_bound():
    """|O1 - O2| = C/2 stays under the growing envelope through the growth window."""
    n = 1024
    t_e = ehrenfest_time(n, CAT_LYAPUNOV)
    c0 = analytic_cat_otoc(0, n).c
    for t in range(1, int(t_e)):
        point = analytic_cat_otoc(t, n)
        gap = abs(point.o1 - point.o2)
        assert gap <= 1.1 * c0 * np.exp(2 * CAT_LYAPUNOV * t) / 2


def test_analytic_cat_otoc_values():
    n = 1024
    p0 = analytic_cat_otoc(0, n)
    assert p0.c == pytest.approx(np.sin(np.pi / n) ** 2, rel=1e-12)
    p3 = analytic_cat_otoc(3, n)
    assert p3.c == pytest.approx(np.sin(13 * np.pi / n) ** 2, rel=1e-12)
    assert p3.c == pytest.approx(1.589e-3, rel=1e-3)
    assert p3.o2 == 0.25
    assert p3.o1 == pytest.approx(np.cos(26 * np.pi / n) / 4, rel=1e-12)


def test_analytic_cat_otoc_growth_ratio():
    # at N=1024 the sine bending already shaves >2% off the t=4 ratio, so the
    # full 2 <= t <= 5 window needs the larger dimension
    rate = np.exp(2 * CAT_LYAPUNOV)
    for t in [2, 3]:
        ratio = analytic_cat_otoc(t + 1, 1024).c / analytic_cat_otoc(t, 1024).c
        assert abs(ratio - rate) / rate < 0.02
    for t in range(2, 6):
        ratio = analytic_cat_otoc(t + 1, 4096).c / analytic_cat_otoc(t, 4096).c
        assert abs(ratio - rate) / rate < 0.02


def test_analytic_cat_rejects_bad_args():
    for t in (-1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            analytic_cat_otoc(t, 64)
    with pytest.raises(ValueError):
        analytic_cat_otoc(3, 1)


def test_analytic_cat_large_t_matches_recurrence_without_warnings():
    # a_t is the top-left entry of M^t; a_{t+2} = 3 a_{t+1} - a_t (mod N), a_0 = 1, a_1 = 2
    n, t_big = 8, 10**5
    a = [1, 2]
    for _ in range(t_big - 1):
        a = [a[1], (3 * a[1] - a[0]) % n]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = analytic_cat_otoc(t_big, n)
    assert point.c == np.sin(np.pi * a[1] / n) ** 2
    assert point.o1 == np.cos(2 * np.pi * a[1] / n) / 4.0


def test_family_linear_reduces_to_sine_pair():
    n = 1024
    for t in range(10):
        value = otoc_family_linear((1, 0), (0, 1), t, n)
        assert value == pytest.approx(analytic_cat_otoc(t, n).c, abs=1e-14)


def test_family_linear_equal_vectors_vanish_at_t0():
    assert otoc_family_linear((2, 5), (2, 5), 0, 64) == 0.0


@pytest.mark.parametrize("n", [0, 1, -8, 8.5, float("nan"), float("inf")])
def test_family_linear_and_cat_law_refuse_bad_dimensions(n):
    """n = 0 raised ZeroDivisionError, and n = -8 gave the N = 8 value."""
    with pytest.raises(ValueError, match="^n must be an integer >= 2"):
        otoc_family_linear((1, 0), (0, 1), 2, n)
    with pytest.raises(ValueError, match="^n must be an integer >= 2"):
        analytic_cat_otoc(2, n)


def test_family_linear_rejects_nonlinear_maps():
    with pytest.raises(ValueError):
        otoc_family_linear((1, 0), (0, 1), 2, 64, map_spec=cat_map(0.1))


def _exact_family(xi, chi, t, n, powers):
    """The closed form from the exact integer power M^t = powers[t], unreduced."""
    (a, b), (c, d) = powers[t]
    image = (a * xi[0] + b * xi[1], c * xi[0] + d * xi[1])
    s = (image[1] * chi[0] - image[0] * chi[1]) % n
    return float(np.sin(np.pi * s / n) ** 2)


def test_family_linear_equals_the_exact_integer_formula():
    """Entries of M^t reduced mod N give the same integer <M^t xi, chi> mod N, so the
    same float, for negative displacements and ones far beyond N."""
    powers = [((1, 0), (0, 1))]
    for _ in range(200):
        (a, b), (c, d) = powers[-1]
        powers.append(((2 * a + b, a + b), (2 * c + d, c + d)))  # M^t (2 1; 1 1)
    for n in (2, 3, 8, 64, 1000, 1024):
        pairs = [((1, 0), (0, 1)), ((-3, 5), (2, -7)), ((5 * n + 1, -5 * n - 2), (-n, 3)),
                 ((-(10 ** 6) - 1, 4 * n + 3), (7, -3 * n - 1))]
        for t in list(range(0, 201, 7)) + [200]:
            for xi, chi in pairs:
                assert otoc_family_linear(xi, chi, t, n) == _exact_family(xi, chi, t, n, powers)


@pytest.mark.parametrize("xi, chi, name", [((0.5, 0), (0, 1), "xi"), ((0, 1), (1, 0.5), "chi"),
                                           ((float("nan"), 0), (0, 1), "xi"),
                                           ((1, 0), (0, float("inf")), "chi")])
def test_family_linear_refuses_non_integer_displacements(xi, chi, name):
    """(0.5, 0) was truncated, giving 0 for (0.5, 0), (0, 1) at t = 2, N = 8."""
    with pytest.raises(ValueError, match=f"^{name} must be two integers"):
        otoc_family_linear(xi, chi, 2, 8)


def test_family_linear_matches_numerics_for_random_pairs(space64, cat64):
    """Brute-force commutator evaluation against the closed form.

    This quantization realizes the translation covariance with the q and p
    roles mirrored, so the numerical pair matching sin^2(pi <M^t xi, chi>/N)
    evolves F_(xi_p, xi_q) against the static F_(chi_p, chi_q); the sine pair
    (1,0)/(0,1) is fixed under the mirror, which is why the headline formula
    needs no translation there.
    """
    n = 64
    rng = np.random.default_rng(17)
    pairs = []
    while len(pairs) < 10:
        xi = tuple(int(v) for v in rng.integers(0, n, 2))
        chi = tuple(int(v) for v in rng.integers(0, n, 2))
        if xi != chi and xi != (0, 0) and chi != (0, 0):
            pairs.append((xi, chi))
    for xi, chi in pairs:
        a = hermitian_f(space64, (xi[1], xi[0])).copy()
        b = hermitian_f(space64, (chi[1], chi[0]))
        for t in range(6):
            comm = a @ b - b @ a
            c_num = np.einsum("ij,ij->", comm, comm.conj()).real / n
            c_formula = otoc_family_linear(xi, chi, t, n)
            assert abs(c_num - c_formula) < 1e-9
            a = channel_step(cat64, None, a)


def test_commutator_oracle_agrees_with_decomposition(space64):
    umap = quantize(cat_map(0.05), space64)
    x, p = sine_position(space64), sine_momentum(space64)
    series = otoc_series(umap, x, p, 8)
    oracle = otoc_via_commutator(umap, x, p, 8)
    assert np.abs(series.c - oracle).max() < 1e-10
    kern = build_kernel(space64, 0.15)
    series_eps = otoc_series(umap, x, p, 8, kernel=kern)
    oracle_eps = otoc_via_commutator(umap, x, p, 8, kernel=kern)
    assert np.abs(series_eps.c - oracle_eps).max() < 1e-10


def test_commutator_oracle_refuses_large_n():
    space = TorusSpace(128)
    umap = quantize(cat_map(0.0), space)
    with pytest.raises(ValueError):
        otoc_via_commutator(umap, sine_position(space), sine_momentum(space), 2)


def test_translation_b_uses_generic_path(space64, cat64):
    """B = F_(1,1) has two cyclic diagonals in the momentum frame, so A B is
    two shifted, scaled copies of A."""
    a = sine_position(space64)
    b = hermitian_f(space64, (1, 1))
    series = otoc_series(cat64, a, b, 4)
    oracle = otoc_via_commutator(cat64, a, b, 4)
    assert np.abs(series.c - oracle).max() < 1e-10


def test_position_diagonal_b_fast_path(space64):
    """Swapped sine pair: B = sine of position sits on the cyclic diagonals
    +1 and -1 of the momentum frame, so A B takes column shifts that wrap."""
    umap = quantize(cat_map(0.05), space64)
    a, b = sine_momentum(space64), sine_position(space64)
    series = otoc_series(umap, a, b, 5)
    oracle = otoc_via_commutator(umap, a, b, 5)
    assert np.abs(series.c - oracle).max() < 1e-10


def test_otoc_series_working_set_is_one_operator():
    """Besides the given A and B, otoc_series holds one working array, which holds B, then
    A and A(t): in the sector the real R on rows 0 .. N/2 with its half spectrum, 8.08
    N^2 bytes.  No product W = A(t) B and no dense temporaries: the peak, 11.3-11.4 N^2
    on two parts (the most at N=512), leaves room for the parts' scratch (N^2 each) and
    no N x N array."""
    n = 512
    space = TorusSpace(n)
    umap = quantize(cat_map(0.02), space)
    kernel = build_kernel(space, 0.01)
    tracemalloc.start()
    try:
        a, b = sine_position(space), sine_momentum(space)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        otoc_series(umap, a, b, 3, kernel=kernel)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 12 * n**2


def test_a_sector_series_holds_its_working_array_and_scratch_alone(monkeypatch):
    """A sector XP series at N=512 peaks at the real R on rows 0 .. N/2 with its half
    spectrum (phase_space._working, 8.08 N^2 bytes with the row pad), the part's pair of
    16-row blocks (N^2 bytes) and 256 KB for numpy's iteration buffers and the O(N)
    arrays.  The complex rows 0 .. N/2 and their half spectrum took 12 N^2 bytes of a
    16 N^2 allocation.  One part, so the figure does not depend on the host's CPUs."""
    monkeypatch.setattr(phase_space, "_part_count", 1)
    n = 512
    space = TorusSpace(n)
    umap = quantize(cat_map(0.02), space)
    kernel = build_kernel(space, 0.01)
    work = phase_space._working(n, -1).base.size
    scratch = sum(block.nbytes for block in phase_space._scratch(n))
    assert work < 8.1 * n**2 and scratch == 16 * 32 * n
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        series = otoc_series(umap, (0, 1), (1, 0), 3, kernel=kernel)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert series.sector == "odd"
    assert peak <= work + scratch + 2**18, (peak, work, scratch)


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("xi, chi", [((0, 1), (1, 0)), ((1, 1), (0, 1))])
def test_otoc_series_displacements_equal_operators(xi, chi, eps):
    """A displacement (xi_q, xi_p) is F_xi written into the run's buffer: every bit of
    C, O1 and O2 equals the run on hermitian_f operators, with and without a kernel."""
    space = TorusSpace(64)
    umap = quantize(cat_map(0.05), space)
    kernel = build_kernel(space, eps) if eps > 0 else None
    by_xi = otoc_series(umap, xi, chi, 8, kernel=kernel)
    by_op = otoc_series(umap, hermitian_f(space, xi), hermitian_f(space, chi), 8, kernel=kernel)
    for name in ("c", "o1", "o2"):
        assert np.array_equal(getattr(by_xi, name), getattr(by_op, name)), name


def test_otoc_series_checks_its_operators(space64, cat64):
    """A and B are each checked for Hermiticity and size once written into the buffer."""
    skew = 1j * np.eye(64)
    with pytest.raises(ValueError, match="operator A is not Hermitian"):
        otoc_series(cat64, skew, (1, 0), 2)
    with pytest.raises(ValueError, match="operator B is not Hermitian"):
        otoc_series(cat64, (0, 1), skew, 2)
    with pytest.raises(ValueError, match="dimension mismatch: operator B 32"):
        otoc_series(cat64, (0, 1), sine_momentum(TorusSpace(32)), 2)


@pytest.mark.parametrize("name, pair", [("A", ((0.5, 1), (1, 0))), ("B", ((0, 1), (1, 0.5))),
                                        ("A", ((float("nan"), 1), (1, 0))),
                                        ("B", ((0, 1), (float("inf"), 0)))])
def test_otoc_series_refuses_non_integer_displacements(cat64, name, pair):
    """F_xi is defined for integer xi only; (0.5, 1) was computed as F(0,1)."""
    with pytest.raises(ValueError, match=f"operator {name} displacement must be two integers"):
        otoc_series(cat64, *pair, 2)
    otoc_series(cat64, (0.0, 1.0), (np.int64(1), 0), 2)  # integral values of any type pass


@pytest.mark.parametrize("name", ["A", "B"])
def test_otoc_series_refuses_nan_operators(cat64, name):
    """NaN compares False with the tolerance, so a defect > tol test let NaN through."""
    nan = np.full((64, 64), np.nan, dtype=complex)
    ops = (nan, (1, 0)) if name == "A" else ((0, 1), nan)
    with pytest.raises(ValueError, match=f"operator {name} is not Hermitian"):
        otoc_series(cat64, *ops, 2)


@pytest.mark.parametrize("bad", [(0.5, 1), (0, np.nan), np.full((64, 64), np.nan, dtype=complex),
                                 1j * np.eye(64), (1, 2, 3)],
                         ids=["fractional", "nan", "nan-array", "skew", "three-entries"])
@pytest.mark.parametrize("name", ["A", "B"])
def test_otoc_series_checks_both_operands_before_writing(monkeypatch, space64, cat64, name, bad):
    """A bad A or B is refused before the working buffer is allocated, B first."""
    def unreachable(n):
        raise AssertionError("allocated before both operands were checked")

    monkeypatch.setattr(otoc, "_working", unreachable)
    pair = (bad, (1, 0)) if name == "A" else ((0, 1), bad)
    with pytest.raises(ValueError, match=f"operator {name}"):
        otoc_series(cat64, *pair, 2)
    with pytest.raises(ValueError, match="operator B"):  # B is checked first
        otoc_series(cat64, bad, bad, 2)


@pytest.mark.parametrize("n", [4, 10, 64, 66, 1024])
def test_b_sector_set_up_matches_the_full_frame_change(n):
    """In the sector (1 - i)B is written on rows 0 .. N/2, takes the real sector
    transform, and has its momentum-frame diagonals read from R through the parity
    mirrors: the shifts of (1 - i) change_basis and _nonzero_diagonals, and their rows
    to 1e-15 relative, for displacements (among them vanishing ones) and for even and
    odd arrays."""
    space = TorusSpace(n)
    h = n // 2
    rand = random_traceless_hermitian(space, n)
    cases = [(xi, -1) for xi in [(1, 0), (0, 1), (1, 1), (2, 3), (h, 1), (0, 0), (h, 0)]]
    cases += [((rand + s * _mirror(rand)) / 2, s) for s in (1, -1)]
    for op, sign in cases:
        checked, got_sign, candidates = otoc._operand(space, op, "B", True)
        assert got_sign == sign
        buf = phase_space._working(n, sign)
        assert buf.shape == (h + 1, n)
        otoc._fill(space, checked, buf, sign)
        shifts, d = otoc._nonzero_diagonals(phase_space._change_frame(buf, MOMENTUM, sign),
                                            candidates, sign)
        full = change_basis(hermitian_f(space, op) if isinstance(op, tuple) else op,
                            POSITION, MOMENTUM)
        want_shifts, want = otoc._nonzero_diagonals((1 - 1j) * full, candidates)
        assert np.array_equal(shifts, want_shifts), op
        assert np.abs(d - want).max(initial=0) <= 1e-15 * np.abs(want).max(initial=0), op


@pytest.mark.parametrize("n", [8, 9])
def test_fill_classifies_displacements_and_arrays(n):
    """(sign, shifts): F_xi is odd with momentum-frame shifts +-p; an array has its
    parity scanned, and every diagonal a candidate; no sign unless asked for.  The
    checked operand is then written as Z = (1 - i)op on every row, or in its sector as
    R = Re Z (odd) or Im Z (even) on rows 0 .. N/2 and no other."""
    space = TorusSpace(n)

    def writes(op, entries, sign):
        buf = np.full((n, n), np.nan, dtype=complex)
        otoc._fill(space, op, buf)
        assert np.array_equal(buf, (1 - 1j) * entries)
        if sign:
            rows, part = n // 2 + 1, (np.real if sign < 0 else np.imag)
            real = np.full((n, n), np.nan)
            otoc._fill(space, op, real[:rows], sign)
            assert np.array_equal(real[:rows], part((1 - 1j) * entries[:rows]))
            assert np.isnan(real[rows:]).all()

    for xi in [(1, 0), (0, 1), (2, 3), (-1, -2), (n + 1, 2 * n + 3), (0, 0)]:
        expected = sorted({xi[1] % n, -xi[1] % n})
        op, *classified = otoc._operand(space, xi, "A", True)
        assert classified == [-1, expected]
        assert otoc._operand(space, xi, "A", False)[1:] == (0, expected)
        writes(op, hermitian_f(space, xi), -1)
    cosine = (translation(space, (1, 1)) + translation(space, (-1, -1))) / 2
    for op, sign in [(sine_position(space), -1), (cosine, 1),
                     (random_traceless_hermitian(space, 5), 0)]:
        assert otoc._operand(space, op, "B", True)[1:] == (sign, None)
        assert otoc._operand(space, op, "B", False)[1:] == (0, None)
        writes(op, op, sign)


@pytest.mark.parametrize("n", [8, 9, 64])
def test_sector_fill_is_the_complex_fill_bit_for_bit(n):
    """In a sector _fill writes the real rows 0 .. N/2 that the first frame change reads:
    Re((1 - i)op) in the odd sector and Im((1 - i)op) in the even one, each bit as in
    the complex fill, for displacements (vanishing, negative and beyond N among them)
    and for arrays of either parity."""
    space = TorusSpace(n)
    h = n // 2
    rand = random_traceless_hermitian(space, n)
    cases = [(xi, -1) for xi in [(1, 0), (0, 1), (2, 3), (-1, -2), (n + 1, 2 * n + 3), (0, 0),
                                 (h, 1)]]
    cases += [((rand + s * _mirror(rand)) / 2, s) for s in (1, -1)]
    cases += [((translation(space, (1, 1)) + translation(space, (-1, -1))) / 2, 1),
              (sine_position(space), -1)]
    for op, sign in cases:
        checked, got_sign, _ = otoc._operand(space, op, "A", True)
        assert got_sign == sign
        full = np.empty((n, n), dtype=complex)
        otoc._fill(space, checked, full)
        half = phase_space._working(n, sign)
        otoc._fill(space, checked, half, sign)
        want = (full.real if sign < 0 else full.imag)[:h + 1]
        assert np.array_equal(half, want) and np.array_equal(np.signbit(half), np.signbit(want))


@pytest.mark.parametrize("n", [64, 66, 1024])
@pytest.mark.parametrize("sign", [1, -1])
def test_sector_contraction_leaves_r_as_it_is(n, sign):
    """_contract reads the sector's R and writes nothing into the working array, pad
    included, in the diagonal form and in the blocks form, whose shifts read rows next to
    a block's (B = F_(0,1), shifts +-1) or 20 rows away (shifts +-20)."""
    space = TorusSpace(n)
    rng = np.random.default_rng(n)
    for b, form in (((1, 0), "diagonal"), ((0, 1), "blocks"), ((0, 20), "blocks")):
        buf = phase_space._working(n, -1)
        checked, _, candidates = otoc._operand(space, b, "B", True)
        otoc._fill(space, checked, buf, -1)
        shifts, d = otoc._nonzero_diagonals(phase_space._change_frame(buf, MOMENTUM, -1),
                                            candidates, -1)
        assert otoc._contraction(shifts) == form
        np.copyto(buf, rng.standard_normal(buf.shape))
        whole = phase_space._whole_rows(buf)
        before = whole.copy()
        o1, o2 = otoc._contract(buf, shifts, d, phase_space._scratch(n), sign)
        assert np.isfinite(o1) and o2 > 0
        assert np.array_equal(whole, before), b


@pytest.mark.parametrize("n, b, scans, sector", [(64, "even", ["B", "A"], "even"),
                                                (64, "displacement", ["A"], "even"),
                                                (64, "random", ["B"], "none"),
                                                (63, "even", [], "none"),
                                                (63, "displacement", [], "none")])
def test_an_array_a_is_scanned_only_while_the_sector_is_possible(monkeypatch, n, b, scans,
                                                                 sector):
    """A's parity is scanned only when B has one at even N, and nothing at odd N.  A is
    the even array (T_xi + T_-xi) / 2 at xi = (1, 1); B is that array at (2, 1), the
    displacement of the odd F_(1,0), or a random array of no parity."""
    space = TorusSpace(n)

    def cosine(xi):
        return (translation(space, xi) + translation(space, (-xi[0], -xi[1]))) / 2

    a_op = cosine((1, 1))
    b_op = {"even": cosine((2, 1)), "displacement": (1, 0),
            "random": random_traceless_hermitian(space, 3)}[b]
    parity, seen = otoc._parity, []

    def counting(x):
        seen.append("A" if np.array_equal(x, a_op) else "B")
        return parity(x)

    monkeypatch.setattr(otoc, "_parity", counting)
    series = otoc_series(quantize(cat_map(0.02), space), a_op, b_op, 2)
    assert seen == scans and series.sector == sector


def _full_path(monkeypatch, umap, a, b, t_max, kernel):
    """The series with the parity sector switched off."""
    with monkeypatch.context() as m:
        m.setattr(otoc, "_keeps_parity", lambda umap: False)
        return otoc_series(umap, a, b, t_max, kernel=kernel)


@pytest.mark.parametrize("n", [8, 64, 66, 63, 65])
@pytest.mark.parametrize("spec", [cat_map(0.3), standard_map(1.5), harper_map(0.94)],
                         ids=["cat", "standard", "harper"])
@pytest.mark.parametrize("pair", [((0, 1), (1, 0)), ((1, 1), (0, 1))], ids=["XP", "F11-F01"])
@pytest.mark.parametrize("eps", [None, 0.1])
def test_parity_sector_agrees_with_the_full_path(monkeypatch, n, spec, pair, eps):
    """At even N the F_xi pair runs in the odd sector under every map, and at odd N
    under Harper, on half the rows, and agrees with the full path to rounding; at odd N
    the cat and standard maps take the full path.  C = -2 Re(O1 - O2) is a difference
    of terms of the size of O2, so every error is measured relative to max O2.  At N=8
    the rows of R are 64 bytes apart, a stride at which numpy 2.4's negative misread a
    transposed view of one or two rows (F11-F01 off by 0.05)."""
    space = TorusSpace(n)
    umap = quantize(spec, space)
    kernel = None if eps is None else build_kernel(space, eps)
    sector = otoc_series(umap, *pair, 10, kernel=kernel)
    full = _full_path(monkeypatch, umap, *pair, 10, kernel)
    assert sector.sector == ("odd" if n % 2 == 0 or spec.kind == "harper" else "none")
    assert full.sector == "none"
    for name in ("o1", "o2", "c"):
        got, want = getattr(sector, name), getattr(full, name)
        assert np.abs(got - want).max() <= 1e-14 * full.o2.max(), name


def _blocks(monkeypatch, umap, a, b, t_max, kernel):
    """The series with the one-pass contraction switched off."""
    with monkeypatch.context() as m:
        m.setattr(otoc, "_contraction", lambda shifts: "blocks")
        return otoc_series(umap, a, b, t_max, kernel=kernel)


@pytest.mark.parametrize("n", [64, 66, 1000])
@pytest.mark.parametrize("b", [(1, 0), (3, 0)])
def test_one_pass_contraction_matches_the_blocks(monkeypatch, n, b):
    """B = F_(q,0) is diagonal in the momentum frame, so O1 and O2 come from one pass
    over |A(t)|^2; they agree with the AB/BA blocks to rounding, relative to max O2,
    in the odd sector (A = F_(0,1)) and on the full path (A of no parity)."""
    space = TorusSpace(n)
    umap = quantize(cat_map(0.02), space)
    kernel = build_kernel(space, 0.01)
    t_max = 3 if n > 100 else 8
    for a, sector in (((0, 1), "odd"), (random_traceless_hermitian(space, 5), "none")):
        one_pass = otoc_series(umap, a, b, t_max, kernel=kernel)
        blocks = _blocks(monkeypatch, umap, a, b, t_max, kernel)
        assert (one_pass.sector, one_pass.contraction) == (sector, "diagonal")
        assert (blocks.sector, blocks.contraction) == (sector, "blocks")
        for name in ("o1", "o2", "c"):
            got, want = getattr(one_pass, name), getattr(blocks, name)
            assert np.abs(got - want).max() <= 1e-14 * blocks.o2.max(), (sector, name)


@pytest.mark.parametrize("spec", [cat_map(0.3), standard_map(1.5), harper_map(0.94)],
                         ids=["cat", "standard", "harper"])
@pytest.mark.parametrize("eps", [None, 0.1])
def test_one_pass_contraction_matches_the_commutator_oracle(spec, eps):
    space = TorusSpace(64)
    umap = quantize(spec, space)
    kernel = None if eps is None else build_kernel(space, eps)
    for a, b in (((0, 1), (1, 0)), ((1, 1), (3, 0))):
        series = otoc_series(umap, a, b, 8, kernel=kernel)
        assert (series.sector, series.contraction) == ("odd", "diagonal")
        oracle = otoc_via_commutator(umap, hermitian_f(space, a), hermitian_f(space, b), 8,
                                     kernel)
        assert np.abs(series.c - oracle).max() < 1e-14


@pytest.mark.parametrize("b, contraction", [((1, 0), "diagonal"), ((0, 1), "blocks"),
                                            ((1, 1), "blocks")])
def test_otoc_series_records_its_layout_and_contraction(b, contraction):
    for n, layout in ((64, "plain 64"), (512, "padded 516")):
        umap = quantize(cat_map(0.02), TorusSpace(n))
        series = otoc_series(umap, (0, 1), b, 0)
        assert (series.layout, series.contraction) == (layout, contraction)


@pytest.mark.parametrize("sign_a", [1, -1])
@pytest.mark.parametrize("sign_b", [1, -1])
def test_parity_sector_of_arrays_agrees_with_the_full_path(monkeypatch, sign_a, sign_b):
    """Arrays of definite parity run in A's sector; B dense in the momentum frame makes
    the contraction fill every row beyond N/2 that BA reads."""
    space = TorusSpace(12)
    umap = quantize(cat_map(0.3), space)
    kernel = build_kernel(space, 0.1)
    a = random_traceless_hermitian(space, 1)
    b = random_traceless_hermitian(space, 2)
    a, b = (a + sign_a * _mirror(a)) / 2, (b + sign_b * _mirror(b)) / 2
    sector = otoc_series(umap, a, b, 6, kernel=kernel)
    full = _full_path(monkeypatch, umap, a, b, 6, kernel)
    assert sector.sector == ("even" if sign_a > 0 else "odd")
    assert np.abs(sector.o1 - full.o1).max() <= 1e-14 * np.abs(full.o2).max()
    assert np.abs(sector.o2 - full.o2).max() <= 1e-14 * np.abs(full.o2).max()


@pytest.mark.parametrize("eps", [None, 0.1])
def test_parity_sector_matches_commutator_oracle(eps):
    space = TorusSpace(64)
    umap = quantize(cat_map(0.3), space)
    kernel = None if eps is None else build_kernel(space, eps)
    a, b = hermitian_f(space, (1, 1)), hermitian_f(space, (0, 1))
    series = otoc_series(umap, a, b, 8, kernel=kernel)
    assert series.sector == "odd"
    assert np.abs(series.c - otoc_via_commutator(umap, a, b, 8, kernel)).max() < 1e-10


def _mirror(x):
    neg = -np.arange(x.shape[0]) % x.shape[0]
    return x[np.ix_(neg, neg)]


def _full_path_by_hand(umap, a, b, t_max, kernel):
    """O1 and O2 from the public full-path evolve and the full contraction, both fed
    Z = (1 - i)A and (1 - i)B, as the series holds them."""
    space = umap.space
    b = hermitian_f(space, b) if np.shape(b) == (2,) else b
    shifts, d = otoc._nonzero_diagonals(change_basis((1 - 1j) * b, POSITION, MOMENTUM))
    a = hermitian_f(space, a) if np.shape(a) == (2,) else a
    scratch = [np.zeros((2, min(16, space.dim), space.dim), dtype=complex)
               for _ in phase_space._parts(space.dim, 16)]
    o1, o2 = zip(*(otoc._contract(at, shifts, d, scratch)
                   for at in evolve(umap, kernel, (1 - 1j) * a, t_max)))
    return np.array(o1), np.array(o2)


@pytest.mark.parametrize("case", ["cat-odd-n", "a-without-parity", "b-without-parity"])
def test_operators_and_maps_without_the_symmetry_take_the_full_path(case):
    """Odd N under the cat map (its quadratic kick phases flip sign under q -> -q), or an
    operator of no definite parity, keep today's full path, bit for bit."""
    n = 63 if case == "cat-odd-n" else 64
    space = TorusSpace(n)
    umap = quantize(cat_map(0.3), space)
    kernel = build_kernel(space, 0.1)
    rand = random_traceless_hermitian(space, 5)
    a, b = {"cat-odd-n": ((1, 1), (0, 1)), "a-without-parity": (rand, (0, 1)),
            "b-without-parity": ((1, 1), rand)}[case]
    series = otoc_series(umap, a, b, 6, kernel=kernel)
    assert series.sector == "none"
    o1, o2 = _full_path_by_hand(umap, a, b, 6, kernel)
    assert np.array_equal(series.o1, o1) and np.array_equal(series.o2, o2)


@pytest.mark.parametrize("n", [2, 4, 8, 10, 64, 3, 9, 63])
def test_mirrored_rows_are_the_rows_beyond_the_half_that_ba_reads(n):
    """Rows 0 .. N/2 of BA read rows (r - j) % N for each of B's shifts j.  Built from R
    on rows 0 .. N/2 alone (phase_space._z_rows), each such row, beyond N/2 too, is that
    row of Z = (1 - i)A, A Hermitian of either parity, bit for bit, one at a time and
    in one run of every row."""
    h = n // 2
    rng = np.random.default_rng(n)
    cases = [[0], [1], [h], [n - 1], [h + 1], list(range(n))]
    cases += [sorted(rng.choice(n, size=min(k, n), replace=False)) for k in (1, 2, 3)
              for _ in range(5)]
    a = random_traceless_hermitian(TorusSpace(n), n)
    for sign in (1, -1):
        z = (1 - 1j) * (a + sign * _mirror(a)) / 2
        held = z.real[:h + 1].copy()
        rt = held.T
        assert np.array_equal(phase_space._z_rows(held, rt, sign, slice(0, n),
                                                  np.empty((n, n), dtype=complex)), z)
        for shifts in cases:
            for g in {(r - j) % n for r in range(h + 1) for j in shifts}:
                row = phase_space._z_rows(held, rt, sign, slice(g, g + 1),
                                          np.empty((1, n), dtype=complex))
                assert np.array_equal(row[0], z[g]), (shifts, g)


def test_loglinear_fit_recovers_synthetic_rate():
    t = np.arange(12)
    slope, intercept, r2 = loglinear_fit(t, 0.7 * np.exp(1.234 * t))
    assert slope == pytest.approx(1.234, abs=1e-12)
    assert intercept == pytest.approx(np.log(0.7), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        loglinear_fit(t, np.zeros(12))


def test_fit_lyapunov_synthetic_exact():
    t = np.arange(10)
    series = OtocSeries(t, np.exp(2 * 0.5 * t), np.zeros(10, complex), np.zeros(10))
    assert fit_lyapunov_from_otoc(series, (1, 8)) == pytest.approx(0.5, abs=1e-12)


def test_fit_lyapunov_warns_on_poor_fit():
    t = np.arange(8)
    curved = np.exp(0.3 * t * t)  # not an exponential
    series = OtocSeries(t, curved, np.zeros(8, complex), np.zeros(8))
    for fit in (fit_lyapunov_from_otoc, fit_growth):
        with pytest.warns(UserWarning, match="R\\^2") as record:
            fit(series, (1, 6))
        assert record[0].filename == __file__  # the warning points at this call


def test_fit_lyapunov_is_half_the_growth_slope(space64):
    """The library's Lyapunov float and the CLI's growth fit are one computation."""
    umap = quantize(cat_map(0.02), space64)
    series = otoc_series(umap, sine_position(space64), sine_momentum(space64), 8,
                         kernel=build_kernel(space64, 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the R^2 check is tested above
        for window in ((1, 3), (1, 5), (2, 8)):
            assert fit_lyapunov_from_otoc(series, window) == fit_growth(series, window).slope / 2
        fit = fit_growth(series, (0, 4))  # start 0 is a valid growth window
    slope, intercept, r2 = loglinear_fit(series.t[:5], series.c[:5])
    assert (fit.slope, fit.intercept, fit.r2, fit.window) == (slope, intercept, r2, (0, 4))


@pytest.mark.parametrize("fit", [fit_growth, fit_lyapunov_from_otoc])
def test_growth_fits_refuse_an_end_past_the_series(fit):
    """An end past the last step used to fit t = 1 .. 9 and, for fit_growth, record the
    window as asked."""
    t = np.arange(10)
    series = OtocSeries(t, np.exp(t), np.zeros(10, complex), np.zeros(10))
    with pytest.raises(ValueError, match="^window end 100 is past the series' last step t = 9$"):
        fit(series, (1, 100))
    with pytest.raises(ValueError, match="^window \\[9, 9\\] holds fewer than the 2 samples"):
        fit(series, (9, 9))


def test_fit_lyapunov_window_validation():
    t = np.arange(10)
    series = OtocSeries(t, np.exp(t), np.zeros(10, complex), np.zeros(10))
    with pytest.raises(ValueError):
        fit_lyapunov_from_otoc(series, (0, 5))
    with pytest.raises(ValueError):
        fit_lyapunov_from_otoc(series, (1, 8), t_ehrenfest=5.0)
