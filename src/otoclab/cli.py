"""Reproducible experiment runner: correlator series, sweeps, resonances.

Subcommands
-----------
otoc        one correlator run, emitting otoc.csv plus a manifest
sweep       one sub-run per value of a swept parameter plus a summary CSV
resonances  channel eigenvalues by dense diagonalization or Arnoldi
lyapunov    classical Lyapunov exponents of the configured map

Runs are configured by flags mirroring the RunConfig fields, optionally
seeded from a flat key=value config file (``#`` starts a comment; unknown
keys are errors so that generated configs fail loudly on typos).  All
randomness flows from the config seed, every float is written with 17
significant digits, and files are written atomically, so re-running an
identical config at a fixed BLAS thread count, which the manifest records,
reproduces every CSV byte for byte; otoc.csv keeps its bytes at any BLAS
thread count and any number of otoclab threads.  The environment variable
OTOCLAB_OUTPUT_ROOT sets the root for relative output paths.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import math
import os
import platform
import re
import resource
import sys
import time
import typing
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, phase_space
from .classical import ehrenfest_time, lyapunov
from .coarse_graining import build_kernel
from .maps import (AS_PRINTED, CAT, CORRESPONDENCE, HARPER, STANDARD,
                   ClassicalMapSpec, cat_map, harper_map, quantize, standard_map)
from .otoc import analytic_cat_otoc, fit_growth, otoc_series
from .phase_space import TorusSpace
from .resonances import (_DENSE_LIMIT, _RealSector, dense_superoperator, fit_tail_rate,
                         full_spectrum, krylov_leading)

__all__ = ["RunConfig", "run_otoc", "run_sweep", "run_resonances", "run_lyapunov", "main"]

OUTPUT_ROOT_ENV = "OTOCLAB_OUTPUT_ROOT"

_MAPS = {CAT: cat_map, STANDARD: standard_map, HARPER: harper_map}
_KICK_MODES = (CORRESPONDENCE, AS_PRINTED)
# sweep axis name -> the RunConfig field it sets
_SWEEP_AXES = {"epsilon": "epsilon", "k": "map_param", "N": "n"}
_OPERATOR_RE = re.compile(r"^F\(\s*(-?\d+)\s*,\s*(-?\d+)\s*;\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")


class CliError(Exception):
    """Configuration or runtime failure surfaced as a single ERROR line."""


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one run; echoed verbatim into the manifest.

    Each field is also a config-file key and a flag (``--`` plus the name
    with dashes; ``--out`` for ``outputs``).
    """

    map: str
    n: int
    map_param: float = 0.0
    epsilon: float = 0.0
    t_max: int = 20
    operators: str = "XP"
    seed: int = 0
    kick_mode: str = CORRESPONDENCE
    outputs: str = "run"
    tail_fit_start: int | None = None
    tail_fit_end: int | None = None
    lyap_fit_start: int | None = None
    lyap_fit_end: int | None = None

    def __post_init__(self) -> None:
        if self.map not in _MAPS:
            raise CliError(f"map must be one of {tuple(_MAPS)}, got {self.map!r}")
        if self.n < 2:
            raise CliError(f"n must be >= 2, got {self.n}")
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise CliError(f"epsilon must be finite and non-negative, got {self.epsilon}")
        if self.t_max < 1:
            raise CliError(f"t_max must be >= 1, got {self.t_max}")
        if self.kick_mode not in _KICK_MODES:
            raise CliError(f"kick_mode must be one of {_KICK_MODES}, got {self.kick_mode!r}")
        if self.operators != "XP" and _OPERATOR_RE.match(self.operators) is None:
            raise CliError(f"operators must be 'XP' or 'F(aq,ap;bq,bp)', got {self.operators!r}")
        for fit in ("tail_fit", "lyap_fit"):
            lo, hi = getattr(self, fit + "_start"), getattr(self, fit + "_end")
            for key, value in ((fit + "_start", lo), (fit + "_end", hi)):
                if value is not None and value < 0:
                    raise CliError(f"{key} must be >= 0, got {value}")
            if lo is not None and hi is not None and lo > hi:
                raise CliError(f"{fit}_start {lo} is after {fit}_end {hi}")

    def map_spec(self) -> ClassicalMapSpec:
        return _MAPS[self.map](self.map_param)

    def output_dir(self) -> Path:
        path = Path(self.outputs)
        if not path.is_absolute():
            path = Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / path
        return path


# config key -> value type, ``int | None`` read as int
_CONFIG_TYPES = {key: (typing.get_args(kind) or (kind,))[0]
                 for key, kind in typing.get_type_hints(RunConfig).items()}
_CONFIG_CHOICES = {"map": tuple(_MAPS), "kick_mode": _KICK_MODES}


def parse_config_file(path: str | Path) -> dict:
    """Flat key=value parsing with comments; unknown keys are errors."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_TYPES:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise CliError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            values[key] = _CONFIG_TYPES[key](value)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _environment() -> list[tuple[str, str]]:
    """Library versions and thread settings the results and timings depend on.

    Threaded BLAS reductions change the last bits of Krylov results, so the
    thread count is part of what makes a run reproducible.  ``otoclab_threads``
    is the most parts an N x N pass runs in (one per 256 lines at most), which
    changes timings only.
    """
    import scipy  # only for its version: loaded after the run's arrays are freed

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    items = [("environment.python", platform.python_version()),
             ("environment.numpy", np.__version__),
             ("environment.scipy", scipy.__version__),
             ("environment.blas", f"{blas.get('name')} {blas.get('version')}"),
             ("environment.cpu_count", str(os.cpu_count())),
             ("environment.otoclab_threads", str(phase_space._part_count))]
    items += [(f"environment.{var}", os.environ.get(var, "unset"))
              for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")]
    return items


def _peak_rss_mb() -> float:
    """This process's peak RSS in MB of 2^20 bytes: its own high-water mark VmHWM where
    /proc exists, else ru_maxrss (KiB on Linux), which in a process started by vfork or
    fork starts from its spawner's memory."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _write_run(config: RunConfig, start: float, name: str, header: list[str], rows,
               derived: list[tuple[str, str]], caught: list[warnings.WarningMessage]) -> Path:
    """``<name>.csv`` plus manifest.txt (config echo, wallclock since ``start``,
    environment, derived values, peak RSS, the ``caught`` warnings, checksum) in
    the run's output directory; the warnings are then echoed to stderr."""
    import hashlib  # OpenSSL: loaded after the run's arrays are freed

    csv_path = config.output_dir() / f"{name}.csv"
    _write_csv(csv_path, header, rows)
    lines = [f"config.{k}={_fmt(v)}" for k, v in dataclasses.asdict(config).items()
             if v is not None]
    lines.append(f"version={__version__}")
    lines.append(f"wallclock_seconds={time.monotonic() - start:.3f}")
    lines.extend(f"{k}={v}" for k, v in _environment() + derived)
    lines.append(f"resource.peak_rss_mb={_peak_rss_mb():.1f}")
    lines.extend(f"warning.{i}={w.category.__name__}: {' '.join(str(w.message).splitlines())}"
                 for i, w in enumerate(caught))
    lines.append(f"file.{csv_path.name}.sha256="
                 f"{hashlib.sha256(csv_path.read_bytes()).hexdigest()}")
    _write_atomic(csv_path.parent / "manifest.txt", "\n".join(lines) + "\n")
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return csv_path


# Peak RSS of `otoc` on the full path with eps 0.01 and t_max 18, largest with the
# F(1,1;0,1) pair, read 52.0-52.2, 74.0 and 104.0-104.1 MB at N = 1023, 1535 and 2047
# (numpy 2.4, MB = 10^6 bytes), 34.8 MB + 16.5 N^2: the interpreter and the libraries
# the compute loads plus one complex N x N array, the buffer that holds B, then A and
# A(t).  OpenSSL, scipy and numpy.random load once that buffer is freed, so at N <=
# 256 the peak, 41.2-41.5 MB, is the process with every library.  The base is
# rounded up to 44 MB for other library builds, the N^2 term to 17 N^2.
_OTOC_BASE_BYTES = 44e6
_OTOC_BYTES_PER_N2 = 17
# The parity sector holds the real R on rows 0 .. N/2 (4 N^2 bytes) and its half
# spectrum (4 N^2) in one allocation.  The larger of the XP and F(1,1;0,1) peaks read
# 43.6-43.9 MB at N=1024 and 70.5-71.0 MB at N=2048 (three runs on 2 parts, numpy 2.4,
# 10^6 bytes), 35.0 MB + 8.5 N^2 from the medians, 8.3-8.6 N^2 between runs, under the
# same base; the N^2 term is rounded up to 9 N^2.
_OTOC_SECTOR_BYTES_PER_N2 = 9
# Peak RSS per time step of `otoc --n 8` with the cat k=0 overlay, the widest
# rows (eleven columns), read at t_max 1000, 20000 and 40000: 948 and 966
# bytes a step for the series arrays, the overlay points and the CSV text.
_OTOC_BYTES_PER_STEP = 970
# Peak RSS of the N^2 run per part of its passes beyond the first, forced to
# 1-8 parts: +0.6 MB at N=512, +1.1 MB at N=1024, +1.4 MB at N=1536 and +1.8 MB
# at N=2048 (2^20 bytes), 0.4 MB + 720 N bytes: the part's thread, its
# temporaries and its pair of 16-row contraction blocks (512 N bytes).
_OTOC_BYTES_PER_PART = 0.5e6
_OTOC_BYTES_PER_PART_N = 800
# Peak RSS of a Krylov run less its basis: the interpreter, the working buffer (16
# N^2 bytes), into which the call writes its seed, and the d-vector temporaries of
# the Gram-Schmidt and residual passes, 8 N^2 bytes each without a parity sector (d =
# N^2), which the allocator may keep mapped once freed.  With a random seed (cat, eps
# N = 10; numpy 2.4, MB = 10^6 bytes) it read 44 MB + 22.6-23.9 N^2 at N = 416-508,
# depth 90, and at depth 12 44 MB + 22.6-31.0 N^2 at N = 512-1408, the most near N =
# 1408, and 23.1-23.5 N^2 at N = 1536-2048 (MALLOC_MMAP_THRESHOLD_=131072 gave 22.7
# N^2 at N = 1280, against 30.7); 64 forced parts added 0.6 MB at N = 1408.  The sine
# seed's odd sector needs less: 8.5 and 14.2 N^2 at N = 1024 and 2048.  The constant
# is rounded up to 34 N^2.
_KRYLOV_BYTES_PER_N2 = 34
# the memory limit of this process's cgroup, v2 and then v1, in bytes, or "max"
# for none (v1 writes a huge number instead); only read
_MEMORY_MAX = "/sys/fs/cgroup/memory.max"
_MEMORY_LIMIT_V1 = "/sys/fs/cgroup/memory/memory.limit_in_bytes"


def _cgroup_memory() -> float:
    """This process's cgroup memory limit in bytes: :data:`_MEMORY_MAX`, or
    :data:`_MEMORY_LIMIT_V1` where that file is missing; inf for neither file, "max"
    (no limit) or a garbled one."""
    for path in (_MEMORY_MAX, _MEMORY_LIMIT_V1):
        try:
            with open(path) as f:
                text = f.read()
        except OSError:
            continue
        try:
            return float(int(text))
        except ValueError:
            return float("inf")
    return float("inf")


def _refuse_beyond_memory(need: float, what: str) -> None:
    """CliError when ``need`` bytes exceed physical memory or the cgroup's memory limit,
    whichever is smaller, before anything is allocated."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    limit = _cgroup_memory()
    if need > min(physical, limit):
        held = (f"the {physical / 1e9:.1f} GB of physical memory" if physical <= limit
                else f"the {limit / 1e9:.1f} GB memory limit of this process's cgroup")
        raise CliError(f"{what} needs {need / 1e9:.1f} GB, more than {held}")


def _build_channel(config: RunConfig):
    """Space, quantized map and kernel (None without dephasing) of a run."""
    space = TorusSpace(config.n)
    umap = quantize(config.map_spec(), space, config.kick_mode)
    kernel = build_kernel(space, config.epsilon) if config.epsilon > 0 else None
    return space, umap, kernel


def _operator_pair(config: RunConfig) -> tuple[tuple[int, int], tuple[int, int]]:
    """Displacements of the evolved F_xi (A) and the static F_chi (B) named by the
    operators field; XP is the sine pair F(0,1), F(1,0)."""
    if config.operators == "XP":
        return (0, 1), (1, 0)
    aq, ap, bq, bp = (int(g) for g in _OPERATOR_RE.match(config.operators).groups())
    return (aq, ap), (bq, bp)


@functools.lru_cache(maxsize=64)
def _cached_estimate(estimator, spec: ClassicalMapSpec, n_traj: int, t_horizon: int,
                     seed: int):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = estimator(spec, n_traj=n_traj, t_horizon=t_horizon, seed=seed)
    return est, tuple(caught)


def _classical_estimate(estimator, spec: ClassicalMapSpec, n_traj: int, t_horizon: int,
                        seed: int):
    """One estimate per process and key, so the sub-runs of a sweep over epsilon or N share
    it; the key holds the estimator, so a replaced ``lyapunov`` is called afresh.  The
    warnings the estimate raised are cached with it and raised again in every run."""
    est, caught = _cached_estimate(estimator, spec, n_traj, t_horizon, seed)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return est


def run_otoc(config: RunConfig) -> dict:
    """One correlator run: otoc.csv plus manifest; returns derived values.

    A run whose working set exceeds physical memory, or the cgroup's memory
    limit, is refused before anything is allocated.  That is 44 MB + 970
    (t_max + 1) + c N^2 + (parts - 1)(0.5 MB + 800 N) bytes, where the N x N
    passes run in parts (at most N / 256 of them, see
    :func:`~otoclab.phase_space._parts`): c = 17 on the full path and 9 in the
    parity sector, which the run takes as :func:`_sector` says.  The manifest
    records that preflight and the peak RSS, in MB of 2^20 bytes.

    The growth window defaults to [1, floor(t_E) - 1], its end clamped to t_max, and
    the tail window to [ceil(t_E) + 2, t_max].  Each fit checks its own window: one
    that ends past t_max or holds too few samples is refused by the fit, and the
    refusal is recorded as ``skipped (...)``.
    """
    start = time.monotonic()
    n, parts = config.n, len(phase_space._parts(config.n))
    per_n2 = _OTOC_SECTOR_BYTES_PER_N2 if _sector(config, odd=True) else _OTOC_BYTES_PER_N2
    need = (_OTOC_BASE_BYTES + _OTOC_BYTES_PER_STEP * (config.t_max + 1) + per_n2 * n ** 2
            + (parts - 1) * (_OTOC_BYTES_PER_PART + _OTOC_BYTES_PER_PART_N * n))
    _refuse_beyond_memory(need, f"otoc working set ({_OTOC_BASE_BYTES / 1e6:g} MB + "
                                f"{_OTOC_BYTES_PER_STEP} (t_max + 1) + {per_n2} N^2 + (parts - 1)"
                                f" ({_OTOC_BYTES_PER_PART / 1e6:g} MB + {_OTOC_BYTES_PER_PART_N} N)"
                                f" bytes)")
    with warnings.catch_warnings(record=True) as caught:
        _, umap, kernel = _build_channel(config)
        a, b = _operator_pair(config)
        series = otoc_series(umap, a, b, config.t_max, kernel=kernel)
        # after the series, so that numpy.random loads once its buffer is freed; the
        # estimate sets only the fit windows, and the series raises no warnings
        est = _classical_estimate(lyapunov, config.map_spec(), 200, 400, config.seed)
        t_e = ehrenfest_time(config.n, est.lam) if est.lam > 0 else float("nan")

        derived: list[tuple[str, str]] = [
            ("derived.lambda_classical", _fmt(est.lam)),
            ("derived.lambda_generalized", _fmt(est.lam_generalized)),
            ("derived.lambda_standard_error", _fmt(est.standard_error)),
            ("derived.t_ehrenfest", _fmt(t_e)),
            ("derived.otoc_sector", series.sector),
            ("derived.otoc_layout", series.layout),
            ("derived.otoc_contraction", series.contraction),
        ]
        header = ["t", "C", "O1_re", "O1_im", "O1_abs", "O2"]
        columns = [series.t, series.c, series.o1.real, series.o1.imag, series.o1_abs, series.o2]

        # default fit windows split the series at the Ehrenfest time; a map with
        # no positive exponent has no growth regime, so fall back to short windows
        t_e_windows = t_e if np.isfinite(t_e) else float(config.t_max)
        lyap_window = (1 if config.lyap_fit_start is None else config.lyap_fit_start,
                       min(max(2, int(np.floor(t_e_windows)) - 1), config.t_max)
                       if config.lyap_fit_end is None else config.lyap_fit_end)
        try:
            fit = fit_growth(series, lyap_window)
            derived += [("derived.lyapunov_fit", _fmt(fit.slope / 2.0)),
                        ("derived.lyapunov_fit_r2", _fmt(fit.r2)),
                        ("derived.lyapunov_fit_window", f"{fit.window[0]}:{fit.window[1]}")]
            header.append("ref_lyapunov")
            columns.append(np.exp(fit.intercept + fit.slope * series.t.astype(float)))
        except ValueError as exc:
            derived.append(("derived.lyapunov_fit", f"skipped ({exc})"))

        tail_window = (int(np.ceil(t_e_windows)) + 2 if config.tail_fit_start is None
                       else config.tail_fit_start,
                       config.t_max if config.tail_fit_end is None else config.tail_fit_end)
        try:
            fit = fit_tail_rate(series, tail_window[0], tail_window[1])
            derived += [("derived.alpha1_tail", _fmt(fit.alpha1)),
                        ("derived.alpha1_tail_r2", _fmt(fit.r2)),
                        ("derived.alpha1_tail_window", f"{fit.window[0]}:{fit.window[1]}")]
            header.append("ref_ruelle")
            columns.append(np.exp(fit.intercept + fit.slope * series.t.astype(float)))
        except ValueError as exc:
            derived.append(("derived.alpha1_tail", f"skipped ({exc})"))

        if (config.map == CAT and config.map_param == 0.0 and config.operators == "XP"
                and config.n % 2 == 0):  # the closed form breaks at the wrap at odd N
            exact = [analytic_cat_otoc(int(t), config.n) for t in series.t]
            header += ["C_exact", "O1_abs_exact", "O2_exact"]
            columns += [np.array([e.c for e in exact]),
                        np.array([abs(e.o1) for e in exact]),
                        np.array([e.o2 for e in exact])]

    derived.append(("resource.preflight_mb", f"{need / 2**20:.1f}"))
    _write_run(config, start, "otoc", header, zip(*columns), derived, caught)
    return dict(derived)


def _sweep_worker(task: tuple[RunConfig, str, float, str]) -> dict:
    """Derived values of the otoc sub-run with ``axis`` set to ``value``, in directory ``name``."""
    config, axis, value, name = task
    if axis == "N" and not float(value).is_integer():
        raise CliError(f"N must be an integer, got {value:g}")
    key = _SWEEP_AXES[axis]
    return run_otoc(dataclasses.replace(config, **{key: _CONFIG_TYPES[key](value)},
                                        outputs=str(Path(config.outputs) / name)))


def _summary_row(value: float, outcome) -> list:
    """Summary row of one sub-run; ``outcome()`` returns its derived values or raises."""
    try:
        derived = outcome()
    except Exception as exc:  # recorded per sub-run
        return [value, "error", "", "", "", "", str(exc).replace(",", ";")]
    return [value, "ok"] + [derived.get(f"derived.{key}", "") for key in (
        "alpha1_tail", "alpha1_tail_r2", "lyapunov_fit", "lyapunov_fit_r2")] + [""]


def run_sweep(config: RunConfig, axis: str, values: list[float], jobs: int = 1) -> Path:
    """One otoc sub-run per value plus a summary CSV (written last).

    Sub-run failures, including invalid substituted configs and workers that
    die, are recorded in the summary but do not abort the sweep; values whose
    directories ``<axis>=<value:g>`` clash are refused first.  The pool holds at
    most one worker per value and per usable CPU, whatever ``jobs`` asks, and
    each worker runs its N x N passes in usable CPUs // workers parts.
    """
    if axis not in _SWEEP_AXES:
        raise CliError(f"sweep axis must be one of {tuple(_SWEEP_AXES)}, got {axis!r}")
    if not values:
        raise CliError("sweep values list is empty")
    if jobs < 1:
        raise CliError(f"jobs must be >= 1, got {jobs}")
    names = [f"{axis}={v:g}" for v in values]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise CliError(f"sweep values {values[names.index(name)]!r} and {values[i]!r} "
                           f"would share the sub-run directory {name}")
    tasks = [(config, axis, v, name) for v, name in zip(values, names)]
    cpus = phase_space._usable_cpus()
    workers = min(jobs, len(tasks), cpus)
    if workers > 1:
        # the manifest's checksum and version libraries, loaded once here so that
        # workers forked from this process share them instead of each loading them
        # between sub-runs; under the forkserver or spawn start method (the pool takes
        # the platform's default) each worker loads them itself, as it did before
        import hashlib  # noqa: F401
        import scipy  # noqa: F401

        # each worker splits its N x N passes over its share of the CPUs
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=phase_space._set_parts,
                initargs=(cpus // workers,)) as pool:
            futures = [pool.submit(_sweep_worker, task) for task in tasks]
            rows = [_summary_row(v, fut.result) for v, fut in zip(values, futures)]
    else:
        rows = [_summary_row(v, functools.partial(_sweep_worker, task))
                for v, task in zip(values, tasks)]
    summary = config.output_dir() / "summary.csv"
    _write_csv(summary, ["value", "status", "alpha1_tail", "alpha1_r2",
                         "lambda_fit", "lambda_r2", "error"], rows)
    return summary


def _sector(config: RunConfig, odd: bool) -> bool:
    """Whether a run will take the odd parity sector, known before anything is built:
    when its operands are ``odd``, as every F_xi is, and the channel keeps parity.  The
    quantized kick phases are mirror-symmetric, which is the run's rule
    (:func:`~otoclab.coarse_graining._keeps_parity`), for all three maps at even N and
    for Harper at every N."""
    return odd and (config.map == HARPER or config.n % 2 == 0)


def run_resonances(config: RunConfig, method: str, depth: int = 40,
                   n_wanted: int = 10, seed_op: str = "sine") -> Path:
    """Channel eigenvalues to resonances.csv; dense is refused above N=24.

    A dense run above N=24, and a Krylov run whose working set exceeds physical
    memory or the cgroup's memory limit, are refused before anything is
    allocated.  That working set is 44 MB + 34 N^2 bytes, the interpreter, the
    working buffer, into which :func:`krylov_leading` writes the seed (the sine seed
    from the displacement (0, 1), a random one drawn from ``config.seed``), and the
    temporaries of its passes, plus the real basis, 8 (depth + 1) d bytes: d is N^2
    without a parity sector and about N^2 / 2 in one, the sector predicted from the
    map, N and the seed (:func:`_sector`).  The manifest records that
    preflight as ``resource.preflight_mb``.
    """
    start = time.monotonic()
    if method not in ("dense", "krylov"):
        raise CliError(f"method must be dense or krylov, got {method!r}")
    if method == "dense" and config.n > _DENSE_LIMIT:
        raise CliError(f"dense resonances need N <= {_DENSE_LIMIT}, got N={config.n}")
    if method == "krylov":
        if seed_op not in ("sine", "random"):
            raise CliError(f"seed_op must be sine or random, got {seed_op!r}")
        need = (_OTOC_BASE_BYTES + _KRYLOV_BYTES_PER_N2 * config.n ** 2
                + 8 * (depth + 1) * _RealSector(config.n, _sector(config, seed_op == "sine")).dim)
        _refuse_beyond_memory(need, f"Krylov working set ({_OTOC_BASE_BYTES / 1e6:g} MB + "
                                    f"{_KRYLOV_BYTES_PER_N2} N^2 bytes + the basis, 8 (depth + 1) d"
                                    f" bytes, d = N^2, or about N^2 / 2 in a parity sector)")
    with warnings.catch_warnings(record=True) as caught:
        _, umap, kernel = _build_channel(config)
        derived: list[tuple[str, str]] = [("derived.method", method)]
        if method == "dense":
            spectrum = full_spectrum(dense_superoperator(umap, kernel),
                                     params={"n": config.n, "epsilon": config.epsilon})
        else:
            # krylov_leading writes the seed into its working buffer itself: the sine
            # seed is F_(0,1), a displacement, a random one its integer seed
            spectrum = krylov_leading(umap, kernel, (0, 1) if seed_op == "sine" else config.seed,
                                      depth=depth, n_wanted=n_wanted)
            derived += [("derived.depth", str(depth)), ("derived.seed_op", seed_op),
                        ("derived.krylov_sector", spectrum.params["sector"]),
                        ("derived.krylov_dim", str(spectrum.params["krylov_dim"])),
                        ("derived.krylov_matvecs", str(spectrum.params["matvecs"])),
                        ("derived.krylov_reorth", str(spectrum.params["reorth"]))]
    derived.append(("derived.alpha1_abs", _fmt(float(abs(spectrum.alpha1)))))
    derived.append(("derived.degenerate_leaders", str(spectrum.degenerate)))
    if method == "krylov":
        derived.append(("resource.preflight_mb", f"{need / 2**20:.1f}"))

    alphas = spectrum.alphas
    # scalar abs: the vectorized np.abs may round the last bit differently
    rows = zip(range(len(alphas)), alphas.real, alphas.imag, map(abs, alphas),
               spectrum.residuals, spectrum.converged.astype(int))
    return _write_run(config, start, "resonances",
                      ["index", "alpha_re", "alpha_im", "alpha_abs", "residual", "converged"],
                      rows, derived, caught)


def run_lyapunov(config: RunConfig, n_traj: int = 200, t_horizon: int = 1000) -> Path:
    """Classical Lyapunov exponents of the configured map to lyapunov.csv."""
    start = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        est = lyapunov(config.map_spec(), n_traj=n_traj, t_horizon=t_horizon, seed=config.seed)
    derived = [("derived.t_ehrenfest", _fmt(ehrenfest_time(config.n, est.lam)))] \
        if est.lam > 0 else []
    return _write_run(config, start, "lyapunov",
                      ["lambda", "lambda_generalized", "standard_error", "n_trajectories",
                       "t_horizon", "seed", "resampled"],
                      [[est.lam, est.lam_generalized, est.standard_error, est.n_trajectories,
                        est.t_horizon, est.seed, est.resampled]], derived, caught)


def _config_parser(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """Subcommand parser with ``--config`` and one flag per RunConfig field."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("--config", help="key=value config file; flags override its entries")
    for key, kind in _CONFIG_TYPES.items():
        flag = "--out" if key == "outputs" else "--" + key.replace("_", "-")
        parser.add_argument(flag, type=kind, dest=key, choices=_CONFIG_CHOICES.get(key))
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in _CONFIG_TYPES
                  if getattr(args, key) is not None)
    for key in ("map", "n"):
        if key not in values:
            raise CliError(f"{key} is required (flag --{key} or config key {key})")
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise CliError(str(exc)) from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="otoclab",
                                     description="OTOC laboratory for quantized torus maps")
    sub = parser.add_subparsers(dest="command", required=True)
    _config_parser(sub, "otoc", "compute one correlator series")

    p_sweep = _config_parser(sub, "sweep", "one otoc run per swept value plus a summary")
    p_sweep.add_argument("--axis", required=True, choices=tuple(_SWEEP_AXES))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list of values for the swept axis")
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_res = _config_parser(sub, "resonances", "extract channel eigenvalues")
    p_res.add_argument("--method", required=True, choices=("dense", "krylov"))
    p_res.add_argument("--depth", type=int, default=40)
    p_res.add_argument("--n-wanted", type=int, default=10, dest="n_wanted")
    p_res.add_argument("--seed-op", choices=("sine", "random"), default="sine", dest="seed_op")

    p_lyap = _config_parser(sub, "lyapunov", "classical Lyapunov exponents")
    p_lyap.add_argument("--n-traj", type=int, default=200, dest="n_traj")
    p_lyap.add_argument("--t-horizon", type=int, default=1000, dest="t_horizon")

    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "otoc":
            run_otoc(config)
        elif args.command == "sweep":
            values = [float(v) for v in args.values.split(",") if v.strip()]
            run_sweep(config, args.axis, values, jobs=args.jobs)
        elif args.command == "resonances":
            run_resonances(config, args.method, depth=args.depth,
                           n_wanted=args.n_wanted, seed_op=args.seed_op)
        elif args.command == "lyapunov":
            run_lyapunov(config, n_traj=args.n_traj, t_horizon=args.t_horizon)
    except (CliError, ValueError, OSError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
