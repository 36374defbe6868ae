"""The padded working buffer and the two-diagonal set-up of a displacement give the
bits of the code they replace: a plain N x N array, the blocked Hermiticity scan and
the scan of every cyclic diagonal."""

import tracemalloc
import warnings

import numpy as np
import pytest

from otoclab import coarse_graining, otoc, phase_space, resonances
from otoclab.maps import cat_map, quantize
from otoclab.phase_space import MOMENTUM, TorusSpace, hermitian_f, hermiticity_defect

# padded at 512, 600, 1000 and 1024, plain at 256 (too small)
SIZES = [256, 512, 600, 1000, 1024]


def _plain(n: int, odd: bool = False) -> np.ndarray:
    """A plain array of what phase_space._working holds: N x N complex without a parity
    sector, the real rows 0 .. N/2 in the odd one."""
    return np.empty((n // 2 + 1, n)) if odd else np.empty((n, n), dtype=complex)


def _random(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _displacements(n: int) -> list[tuple[int, int]]:
    """Vanishing ones (F_(0,0), and at even N F_(0,N/2) and F_(N/2,0)), the sine pair,
    negative ones and ones beyond N."""
    h = n // 2
    return [(0, 0), (0, h), (h, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, 2),
            (3, -5), (n + 1, 2 * n + 3), (-n - 2, -3 * n + 1)]


@pytest.mark.parametrize("n, padded", [(2, False), (256, False), (512, True), (768, True),
                                       (1000, True), (1024, True), (1280, True)])
def test_working_buffer_pads_rows_whose_stride_is_a_multiple_of_4k(n, padded):
    x = phase_space._working(n)
    assert x.shape == (n, n) and x.dtype == complex
    assert x.strides == ((n + 4 * padded) * 16, 16)
    assert x.ctypes.data % 64 == 0 or not padded


@pytest.mark.parametrize("n", [512, 600, 768, 1000, 1001, 1024, 1500, 2048])
def test_working_buffer_rows_span_an_odd_number_of_cache_lines(n):
    """At N >= 512 the row stride is an odd number of 64-byte lines, padded with
    (4 - N) mod 8 zeroed entries: N = 1500 (375 lines) stays plain."""
    x = phase_space._working(n)
    pad = (4 - n) % 8
    assert x.shape == (n, n) and x.strides == ((n + pad) * 16, 16)
    assert x.strides[0] // 64 % 2 == 1 and x.strides[0] % 64 == 0
    assert x.ctypes.data % 64 == 0 or not pad
    rows = phase_space._whole_rows(x)
    assert rows.shape == (n, n + pad) and rows.flags.c_contiguous
    assert np.shares_memory(rows, x) and not rows[:, n:].any()


@pytest.mark.parametrize("n", [2, 3, 64, 255, 256, 320, 511])
def test_working_buffer_is_plain_below_512(n):
    x = phase_space._working(n)
    assert x.shape == (n, n) and x.flags.c_contiguous
    assert phase_space._whole_rows(x) is x


def test_only_a_working_buffer_is_widened_to_its_pad():
    """A slice of a wider array has the stride of a padded buffer, but the entries
    beyond its columns are the caller's: a step must neither read nor write them."""
    n = 512
    wide = _random(n + 4)[:n]
    x = wide[:, :n]
    assert phase_space._whole_rows(x) is x
    umap = quantize(cat_map(0.3), TorusSpace(n))
    mask = coarse_graining._mask(coarse_graining.build_kernel(TorusSpace(n), 0.01))
    beyond = wide[:, n:].copy()
    coarse_graining._step(umap, mask, x)
    assert np.array_equal(wide[:, n:], beyond)


@pytest.mark.parametrize("n", SIZES + [1023])
def test_step_on_the_working_buffer_gives_the_plain_bits(n):
    """The full step on every row of the complex buffer; the sector step on R = Re Z on
    rows 0 .. N/2, all the sector's real working array holds (its half spectrum after
    it), laid out by the row width, against a plain array of those rows.  At N = 1023,
    the full path of an odd-N cat run, which has no sector, rows are padded to 1028 and
    the step pads its phase vectors with ones to match."""
    space = TorusSpace(n)
    umap = quantize(cat_map(0.3), space)
    mask = coarse_graining._mask(coarse_graining.build_kernel(space, 0.01))
    x = _random(n)
    for odd in (False,) if n % 2 else (False, True):
        held = x.real[:n // 2 + 1] if odd else x
        buf = phase_space._working(n, odd)
        np.copyto(buf, held)
        scratch = phase_space._scratch(n)
        expected = coarse_graining._step(umap, mask, held.copy(), scratch)
        got = coarse_graining._step(umap, mask, buf, scratch)
        assert got.shape == held.shape and np.array_equal(got, expected)


@pytest.mark.parametrize("n", SIZES)
def test_otoc_series_on_the_working_buffer_gives_the_plain_bits(n, monkeypatch):
    """The sine pair and an array pair run in the odd sector, a random A on the full
    path; an array B has all its diagonals scanned."""
    space = TorusSpace(n)
    umap = quantize(cat_map(0.02), space)
    kernel = coarse_graining.build_kernel(space, 0.01)
    cases = [((0, 1), (1, 0), "odd"),
             ((1, 1), hermitian_f(space, (0, 1)), "odd"),
             (resonances.random_traceless_hermitian(space, 3), (1, 1), "none")]

    def run():
        return [otoc.otoc_series(umap, a, b, 3, kernel) for a, b, _ in cases]

    padded = run()
    monkeypatch.setattr(otoc, "_working", _plain)
    for (*_, sector), p, q in zip(cases, padded, run()):
        assert p.sector == q.sector == sector
        assert np.array_equal(p.o1, q.o1) and np.array_equal(p.o2, q.o2)


@pytest.mark.parametrize("n", [256, 512, 1000, 1024])
def test_krylov_on_the_working_buffer_gives_the_plain_bits(n, monkeypatch):
    """The sine seed takes the odd sector step; at N <= 512 a random seed takes the
    full step (its N^2-real basis is kept small)."""
    space = TorusSpace(n)
    umap = quantize(cat_map(0.02), space)
    kernel = coarse_graining.build_kernel(space, 10.0 / n)
    seeds = [phase_space.sine_position(space)]
    if n <= 512:
        seeds.append(resonances.random_traceless_hermitian(space, 1))

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a shallow run leaves Ritz values unconverged
            return [resonances.krylov_leading(umap, kernel, s, depth=7) for s in seeds]

    padded = run()
    monkeypatch.setattr(resonances, "_working", _plain)
    for p, q in zip(padded, run()):
        assert p.params == q.params
        assert np.array_equal(p.alphas, q.alphas) and np.array_equal(p.residuals, q.residuals)
    assert [p.params["sector"] for p in padded] == ["odd", "none"][:len(seeds)]


def test_a_step_on_the_padded_buffer_allocates_no_more_than_on_a_plain_array(monkeypatch):
    """The mask pass runs over whole padded rows of R, one contiguous block a part, and
    the kicks over contiguous blocks of Z in the part's scratch, so numpy allocates no
    iteration buffer for the pad: a sector step on the working array, rows 1028 reals
    wide at N=1024, allocates no more than on one laid out plain, 1024 wide.  The few
    hundred bytes of the whole-row view are allowed.

    Both steps run in one part.  tracemalloc counts every thread, so with two parts the
    pool thread's ~130 KB mask-pass buffer adds to the caller's peak only when the two
    are alive at once: 30 repetitions on a busy host read 137-241 KB padded and 145-276
    KB plain, which once failed the bound, while one part reads 134.6-134.9 and 141.9
    KB every time."""
    monkeypatch.setattr(phase_space, "_part_count", 1)
    n = 1024
    space = TorusSpace(n)
    umap = quantize(cat_map(0.02), space)
    mask = coarse_graining._mask(coarse_graining.build_kernel(space, 0.01))
    x = _random(n).real[:n // 2 + 1]
    scratch = phase_space._scratch(n)
    with monkeypatch.context() as m:
        m.setattr(phase_space, "_row_width", lambda n: n)
        plain = phase_space._working(n, True)
    padded = phase_space._working(n, True)
    assert [phase_space._whole_rows(b).shape[1] for b in (padded, plain)] == [n + 4, n]
    peaks = []
    for buf in (padded, plain):
        np.copyto(buf, x)
        coarse_graining._step(umap, mask, buf, scratch)  # warm-up: first use is not traced
        tracemalloc.start()
        try:
            coarse_graining._step(umap, mask, buf, scratch)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    padded, plain = peaks
    assert padded <= plain + 4096, peaks


@pytest.mark.parametrize("n", [64, 66, 1024])
def test_a_sector_series_touches_no_row_past_the_half_spectrum(n, monkeypatch):
    """A sector XP series works on R, rows 0 .. N/2, and on its half spectrum, which the
    working array holds right after R in one allocation (phase_space._half_spectrum),
    and on nothing else: given an R that is the top rows of a NaN-filled array wider
    than N, the series leaves every bit as it is, and the rows past N/2 and the columns
    past N still hold NaN afterwards."""
    space = TorusSpace(n)
    umap = quantize(cat_map(0.02), space)
    kernel = coarse_graining.build_kernel(space, 0.01)
    expected = otoc.otoc_series(umap, (0, 1), (1, 0), 6, kernel)
    work = phase_space._working(n, True)
    spectrum = phase_space._half_spectrum(work)
    assert np.shares_memory(spectrum, work.base) and not np.shares_memory(spectrum, work)
    assert spectrum.ctypes.data >= work.ctypes.data + work.strides[0] * work.shape[0]
    buffers = []

    def sentinel(m, odd):
        big = np.full((m, m + 5), np.nan)
        buffers.append(big)
        return big[:m // 2 + 1, :m]

    monkeypatch.setattr(otoc, "_working", sentinel)
    got = otoc.otoc_series(umap, (0, 1), (1, 0), 6, kernel)
    assert got.sector == expected.sector == "odd"
    for name in ("c", "o1", "o2"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    (big,) = buffers
    past = big[n // 2 + 1:]
    assert past.shape[0] > n // 5 and np.isnan(past).all() and np.isnan(big[:, n:]).all()


@pytest.mark.parametrize("n", list(range(2, 25)) + [63, 64, 512, 1000, 1024])
def test_gathered_diagonals_match_the_full_scan(n):
    """F_(q,p) in the momentum frame lies on diagonals +-p; gathered there with the
    scan's noise rule it gives the scan's shifts and rows, none for a vanishing F."""
    space = TorusSpace(n)
    buf = phase_space._working(n)
    for xi in _displacements(n):
        op, _, candidates = otoc._operand(space, xi, "B", False)
        otoc._fill(space, op, buf)
        bm = phase_space._change_frame(buf, MOMENTUM)
        shifts, d = otoc._nonzero_diagonals(bm)
        gathered, dg = otoc._nonzero_diagonals(bm, candidates)
        assert gathered.dtype == shifts.dtype and np.array_equal(gathered, shifts), xi
        assert np.array_equal(dg, d), xi
        vanishes = 2 * xi[0] % n == 0 and 2 * xi[1] % n == 0  # T_xi = T_-xi = T_xi^dag
        assert (shifts.size == 0) == vanishes, xi


@pytest.mark.parametrize("n", [2, 3, 8, 63, 64, 512])
def test_two_diagonal_defect_equals_the_blocked_scan(n, monkeypatch):
    """F_xi's defect, read from its two diagonals, is the blocked scan's of the written
    F_xi; a perturbed or NaN diagonal entry is seen as the scan sees it."""
    space = TorusSpace(n)
    diagonals = phase_space._f_diagonals
    for xi in _displacements(n):
        assert phase_space._f_defect(space, xi) == hermiticity_defect(hermitian_f(space, xi))
        for bad in (0.25 + 0.5j, np.nan):
            def perturbed(space, xi):
                j, lower, upper = diagonals(space, xi)
                lower[0] += bad  # entry (j, 0): off the diagonal, or an imaginary part on it
                if 2 * j % n == 0:  # diagonal j is its own transpose: upper[j] is (j, 0) too
                    upper[j] = lower[0]
                return j, lower, upper

            monkeypatch.setattr(phase_space, "_f_diagonals", perturbed)
            defect, buf = phase_space._f_defect(space, xi), hermitian_f(space, xi)
            monkeypatch.undo()
            if np.isnan(bad):
                assert np.isnan(defect) and np.isnan(hermiticity_defect(buf))
            else:
                assert defect > 0 and defect == hermiticity_defect(buf)
