"""The N x N passes run in parts over threads and give the serial bits."""

import multiprocessing
import sys
import warnings

import numpy as np
import pytest

from otoclab import coarse_graining, otoc, phase_space
from otoclab.resonances import krylov_leading
from otoclab.cli import main
from otoclab.maps import cat_map, harper_map, quantize, standard_map
from otoclab.phase_space import MOMENTUM, POSITION, TorusSpace


@pytest.fixture
def set_parts():
    """Set the part count in a test; the process's own count is set back after it."""
    yield phase_space._set_parts
    phase_space._set_parts(phase_space._usable_cpus())


@pytest.fixture
def split_all(set_parts, monkeypatch):
    """Split every pass, whatever its size, in as many parts as the test sets."""
    monkeypatch.setattr(phase_space, "_PART_MIN", 1)
    return set_parts


def _random(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_parts_start_on_block_edges(split_all):
    split_all(3)
    assert phase_space._parts(63, 16) == [slice(0, 16), slice(16, 32), slice(32, 63)]
    assert phase_space._parts(64) == [slice(0, 21), slice(21, 42), slice(42, 64)]
    assert phase_space._parts(10, 16) == [slice(0, 10)]  # one block: one part
    split_all(0)
    assert phase_space._parts(64) == [slice(0, 64)]


def test_parts_hold_at_least_the_part_minimum(set_parts):
    set_parts(64)
    assert phase_space._parts(511) == [slice(0, 511)]
    assert phase_space._parts(512, 16) == [slice(0, 256), slice(256, 512)]
    assert len(phase_space._parts(1024)) == len(phase_space._parts(1024, 16)) == 4


def test_half_pass_counts_parts_from_n(set_parts):
    """A half pass over N/2 + 1 lines is split as the whole pass: counted from its
    501 lines, N=1000 would fall under the part minimum and run inline."""
    set_parts(2)
    assert len(phase_space._parts(1000)) == 2
    assert phase_space._parts(1000, lines=501) == [slice(0, 250), slice(250, 501)]
    assert len(phase_space._parts(1000, 16, 499)) == 2


def test_split_finishes_every_part_before_raising(split_all):
    split_all(3)
    done = []

    def fn(i, s):
        if i == 0:
            raise RuntimeError("part 0")
        done.append(i)
        return s

    with pytest.raises(RuntimeError, match="part 0"):
        phase_space._split(fn, 30)
    assert sorted(done) == [1, 2]
    assert phase_space._split(lambda i, s: (i, s.start), 30) == [(0, 0), (1, 10), (2, 20)]


def _at_part_counts(split_all, compute):
    results = []
    for k in (1, 2, 3):
        split_all(k)
        results.append(compute())
    return results


def _held(x: np.ndarray, odd: bool) -> np.ndarray:
    """What a run's working array holds: all of x without a sector, and in the ``odd``
    one the real rows 0 .. N/2 (phase_space._working), whose dtype names the path."""
    return x.real[:x.shape[0] // 2 + 1].copy() if odd else x.copy()


@pytest.mark.parametrize("n", [63, 64, 66])
def test_change_frame_bits_do_not_depend_on_parts(split_all, n):
    x = _random(n)
    for odd in (False, True):  # the full pass and the odd sector's, at odd N as at even N
        for to in (MOMENTUM, POSITION):
            first, *rest = _at_part_counts(
                split_all, lambda: phase_space._change_frame(_held(x, odd), to))
            assert all(np.array_equal(first, r) for r in rest)


@pytest.mark.parametrize("n", [63, 64, 66])
@pytest.mark.parametrize("epsilon", [None, 0.1])
def test_step_bits_do_not_depend_on_parts(split_all, n, epsilon):
    space = TorusSpace(n)
    umap = quantize(cat_map(0.3), space)
    mask = None if epsilon is None else coarse_graining._mask(
        coarse_graining.build_kernel(space, epsilon))
    x = _random(n)
    for odd in (False, True):
        first, *rest = _at_part_counts(
            split_all, lambda: coarse_graining._step(umap, mask, _held(x, odd),
                                                phase_space._scratch(n)))
        assert all(np.array_equal(first, r) for r in rest)


@pytest.mark.parametrize("n", [63, 64, 66])
@pytest.mark.parametrize("pair", [((0, 1), (1, 0)), ((1, 1), (0, 1))])
def test_otoc_series_bits_do_not_depend_on_parts(split_all, n, pair):
    """At even N the F_xi pair runs in the odd sector under each map; at N=63 Harper
    still does, and the cat and standard maps, whose quadratic phases break parity
    there, take the full path."""
    for spec in (harper_map(0.94), cat_map(0.3), standard_map(1.5)):
        space = TorusSpace(n)
        umap = quantize(spec, space)
        kernel = coarse_graining.build_kernel(space, 0.1)
        first, *rest = _at_part_counts(
            split_all, lambda: otoc.otoc_series(umap, *pair, 6, kernel=kernel))
        assert first.sector == ("none" if n % 2 and spec.kind != "harper" else "odd")
        for r in rest:
            assert np.array_equal(first.o1, r.o1) and np.array_equal(first.o2, r.o2)


@pytest.mark.parametrize("n, sector", [(200, "odd"), (199, "none")])
def test_one_pass_contraction_bits_do_not_depend_on_parts(split_all, n, sector):
    """B = F_(1,0) is diagonal in momentum: its 32-row blocks of |A(t)|^2 sit on fixed
    edges, four of them in the sector at N=200 and seven on the full path at N=199."""
    space = TorusSpace(n)
    umap = quantize(cat_map(0.3), space)
    kernel = coarse_graining.build_kernel(space, 0.1)
    first, *rest = _at_part_counts(
        split_all, lambda: otoc.otoc_series(umap, (0, 1), (1, 0), 4, kernel=kernel))
    assert (first.sector, first.contraction) == (sector, "diagonal")
    for r in rest:
        assert np.array_equal(first.o1, r.o1) and np.array_equal(first.o2, r.o2)


def test_krylov_sector_bits_do_not_depend_on_parts(set_parts):
    """At N=1000 the sector steps of the sine seed split in two at the default part
    minimum: the Ritz values and residuals keep their bits at 1 and 2 parts."""
    space = TorusSpace(1000)
    umap = quantize(cat_map(0.02), space)
    kernel = coarse_graining.build_kernel(space, 0.01)
    runs = []
    for k in (1, 2):
        set_parts(k)
        assert len(phase_space._parts(1000)) == k
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a shallow run leaves Ritz values unconverged
            runs.append(krylov_leading(umap, kernel, phase_space.sine_position(space), depth=8,
                                       n_wanted=3))
    one, two = runs
    assert one.params["sector"] == two.params["sector"] == "odd"
    assert np.array_equal(one.alphas, two.alphas)
    assert np.array_equal(one.residuals, two.residuals)


def test_otoc_series_bits_hold_under_thread_switching(split_all):
    """More parts than CPUs, switching threads every microsecond: a part that
    wrote into another's rows or a lost block sum would change the bits."""
    space = TorusSpace(64)
    umap = quantize(harper_map(0.94), space)
    kernel = coarse_graining.build_kernel(space, 0.1)
    split_all(1)
    serial = otoc.otoc_series(umap, (1, 1), (0, 1), 6, kernel=kernel)
    assert serial.sector == "odd"
    split_all(phase_space._usable_cpus() + 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            series = otoc.otoc_series(umap, (1, 1), (0, 1), 6, kernel=kernel)
            assert np.array_equal(serial.o1, series.o1)
            assert np.array_equal(serial.o2, series.o2)
    finally:
        sys.setswitchinterval(interval)


def test_cli_otoc_bytes_do_not_depend_on_parts(tmp_path, set_parts):
    """At N=512 the passes split in two at the default part minimum."""
    outputs = []
    for k in (1, 2):
        set_parts(k)
        out = tmp_path / f"parts{k}"
        assert main(["otoc", "--map", "cat", "--n", "512", "--map-param", "0.02",
                     "--epsilon", "0.01", "--t-max", "6", "--out", str(out)]) == 0
        assert f"environment.otoclab_threads={k}\n" in (out / "manifest.txt").read_text()
        outputs.append((out / "otoc.csv").read_bytes())
    assert outputs[0] == outputs[1]


def _step_matches(umap, x, expected):
    assert np.array_equal(coarse_graining._step(umap, None, x.copy()), expected)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_builds_its_own_pool(split_all):
    """The parent's pool threads do not exist in a forked child; were the pool
    inherited, the child's first split would wait for them forever."""
    split_all(2)
    space = TorusSpace(64)
    umap = quantize(cat_map(0.3), space)
    x = _random(64)
    expected = coarse_graining._step(umap, None, x.copy())
    assert phase_space._executor is not None
    with warnings.catch_warnings():
        # Python 3.12+ warns on any fork of a threaded process, the case under test
        warnings.simplefilter("ignore", DeprecationWarning)
        child = multiprocessing.get_context("fork").Process(target=_step_matches,
                                                            args=(umap, x, expected))
        child.start()
    child.join(timeout=60)
    if child.exitcode is None:
        child.kill()
        child.join()
    assert child.exitcode == 0


@pytest.mark.parametrize("text, cpus", [
    ("max 100000\n", 4), ("150000 100000\n", 2), ("50000 100000\n", 1),
    ("800000 100000\n", 4), (None, 4), ("garbled\n", 4), ("100000 0\n", 4)],
    ids=["no-quota", "1.5-cpus", "half-cpu", "above-affinity", "missing", "garbled", "zero-period"])
def test_usable_cpus_honour_a_cgroup_quota(tmp_path, monkeypatch, text, cpus):
    """ceil(quota / period) caps the affinity count (4 here); no quota, no file or a
    line that does not read as two integers leaves it."""
    path = tmp_path / "cpu.max"
    if text is not None:
        path.write_text(text)
    monkeypatch.setattr(phase_space, "_CPU_MAX", str(path))
    monkeypatch.setattr(phase_space.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    assert phase_space._usable_cpus() == cpus
