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
reproduces every CSV byte for byte.  The environment variable
OTOCLAB_OUTPUT_ROOT sets the root for relative output paths.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import hashlib
import math
import os
import platform
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .classical import ehrenfest_time, lyapunov
from .coarse_graining import build_kernel
from .maps import (AS_PRINTED, CAT, CORRESPONDENCE, HARPER, STANDARD,
                   ClassicalMapSpec, cat_map, harper_map, quantize, standard_map)
from .otoc import analytic_cat_otoc, loglinear_fit, otoc_series
from .phase_space import TorusSpace, hermitian_f, sine_momentum, sine_position
from .resonances import (dense_superoperator, fit_tail_rate, full_spectrum,
                         krylov_leading, random_traceless_hermitian)

__all__ = ["RunConfig", "run_otoc", "run_sweep", "run_resonances", "run_lyapunov", "main"]

OUTPUT_ROOT_ENV = "OTOCLAB_OUTPUT_ROOT"

_MAP_KINDS = (CAT, STANDARD, HARPER)
_KICK_MODES = (CORRESPONDENCE, AS_PRINTED)
_OPERATOR_RE = re.compile(r"^F\(\s*(-?\d+)\s*,\s*(-?\d+)\s*;\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")


class CliError(Exception):
    """Configuration or runtime failure surfaced as a single ERROR line."""


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one run; echoed verbatim into the manifest."""

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
        if self.map not in _MAP_KINDS:
            raise CliError(f"map must be one of {_MAP_KINDS}, got {self.map!r}")
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

    def map_spec(self) -> ClassicalMapSpec:
        if self.map == CAT:
            return cat_map(self.map_param)
        if self.map == STANDARD:
            return standard_map(self.map_param)
        return harper_map(self.map_param)

    def output_dir(self) -> Path:
        path = Path(self.outputs)
        if not path.is_absolute():
            path = Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / path
        return path

    def echo_items(self) -> list[tuple[str, str]]:
        items = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            items.append((f"config.{f.name}", _fmt(value)))
        return items


_CONFIG_TYPES = {
    "map": str, "n": int, "map_param": float, "epsilon": float, "t_max": int,
    "operators": str, "seed": int, "kick_mode": str, "outputs": str,
    "tail_fit_start": int, "tail_fit_end": int, "lyap_fit_start": int, "lyap_fit_end": int,
}


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


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _environment() -> list[tuple[str, str]]:
    """Library versions and thread settings the results and timings depend on.

    Threaded BLAS reductions change the last bits of Krylov results, so the
    thread count is part of what makes a run reproducible.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    items = [("environment.python", platform.python_version()),
             ("environment.numpy", np.__version__),
             ("environment.scipy", scipy.__version__),
             ("environment.blas", f"{blas.get('name')} {blas.get('version')}"),
             ("environment.cpu_count", str(os.cpu_count()))]
    items += [(f"environment.{var}", os.environ.get(var, "unset"))
              for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")]
    return items


def _write_manifest(outdir: Path, config: RunConfig, derived: list[tuple[str, str]],
                    files: list[Path], wallclock: float) -> Path:
    lines = [f"{k}={v}" for k, v in config.echo_items()]
    lines.append(f"version={__version__}")
    lines.append(f"wallclock_seconds={wallclock:.3f}")
    lines.extend(f"{k}={v}" for k, v in _environment())
    lines.extend(f"{k}={v}" for k, v in derived)
    for f in files:
        lines.append(f"file.{f.name}.sha256={_sha256(f)}")
    path = outdir / "manifest.txt"
    _write_atomic(path, "\n".join(lines) + "\n")
    return path


# Peak RSS of `otoc` with the XP pair, the largest of its working sets, read
# 168 MB at N=1024 and 447 MB at N=2048 (numpy 2.4): 75 MB of interpreter and
# libraries plus 89 N^2 bytes, about five and a half complex N x N arrays.
_OTOC_BASE_BYTES = 75e6
_OTOC_BYTES_PER_N2 = 89


def _refuse_beyond_memory(need: float, what: str) -> None:
    """CliError when ``need`` bytes exceed physical memory, before anything is allocated."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > physical:
        raise CliError(f"{what} needs {need / 1e9:.1f} GB, "
                       f"more than the {physical / 1e9:.1f} GB of physical memory")


def _operator_pair(config: RunConfig, space: TorusSpace):
    """Evolved observable A and static observable B from the operators field."""
    if config.operators == "XP":
        return sine_position(space), sine_momentum(space)
    m = _OPERATOR_RE.match(config.operators)
    aq, ap, bq, bp = (int(g) for g in m.groups())
    return hermitian_f(space, (aq, ap)), hermitian_f(space, (bq, bp))


def _classical_rates(config: RunConfig):
    spec = config.map_spec()
    est = lyapunov(spec, n_traj=200, t_horizon=400, seed=config.seed)
    t_e = ehrenfest_time(config.n, est.lam) if est.lam > 0 else float("nan")
    return est, t_e


def run_otoc(config: RunConfig) -> dict:
    """One correlator run: otoc.csv plus manifest; returns derived values.

    A run whose working set, 75 MB + 89 N^2 bytes, exceeds physical memory is
    refused before anything is allocated.
    """
    start = time.monotonic()
    _refuse_beyond_memory(_OTOC_BASE_BYTES + _OTOC_BYTES_PER_N2 * config.n ** 2,
                          "otoc working set (75 MB + 89 x N^2 bytes)")
    outdir = config.output_dir()
    spec = config.map_spec()
    space = TorusSpace(config.n)
    umap = quantize(spec, space, config.kick_mode)
    kernel = build_kernel(space, config.epsilon) if config.epsilon > 0 else None
    a, b = _operator_pair(config, space)
    est, t_e = _classical_rates(config)
    series = otoc_series(umap, a, b, config.t_max, kernel=kernel, operators=config.operators)

    derived: list[tuple[str, str]] = [
        ("derived.lambda_classical", _fmt(est.lam)),
        ("derived.lambda_generalized", _fmt(est.lam_generalized)),
        ("derived.lambda_standard_error", _fmt(est.standard_error)),
        ("derived.t_ehrenfest", _fmt(t_e)),
    ]
    header = ["t", "C", "O1_re", "O1_im", "O1_abs", "O2"]
    columns = [series.t, series.c, series.o1.real, series.o1.imag, series.o1_abs, series.o2]

    # default fit windows split the series at the Ehrenfest time; a map with
    # no positive exponent has no growth regime, so fall back to short windows
    t_e_windows = t_e if np.isfinite(t_e) else float(config.t_max)
    lyap_window = (1 if config.lyap_fit_start is None else config.lyap_fit_start,
                   max(2, int(np.floor(t_e_windows)) - 1) if config.lyap_fit_end is None
                   else config.lyap_fit_end)
    lyap_window = (lyap_window[0], min(lyap_window[1], config.t_max))
    try:
        mask = (series.t >= lyap_window[0]) & (series.t <= lyap_window[1])
        slope, intercept, r2 = loglinear_fit(series.t[mask], series.c[mask])
        derived += [("derived.lyapunov_fit", _fmt(slope / 2.0)),
                    ("derived.lyapunov_fit_r2", _fmt(r2)),
                    ("derived.lyapunov_fit_window", f"{lyap_window[0]}:{lyap_window[1]}")]
        header.append("ref_lyapunov")
        columns.append(np.exp(intercept + slope * series.t.astype(float)))
    except ValueError as exc:
        derived.append(("derived.lyapunov_fit", f"skipped ({exc})"))

    tail_window = (int(np.ceil(t_e_windows)) + 2 if config.tail_fit_start is None
                   else config.tail_fit_start,
                   config.t_max if config.tail_fit_end is None else config.tail_fit_end)
    if tail_window[1] - tail_window[0] >= 3 and tail_window[1] <= config.t_max:
        try:
            fit = fit_tail_rate(series, tail_window[0], tail_window[1])
            derived += [("derived.alpha1_tail", _fmt(fit.alpha1)),
                        ("derived.alpha1_tail_r2", _fmt(fit.r2)),
                        ("derived.alpha1_tail_window", f"{fit.window[0]}:{fit.window[1]}")]
            header.append("ref_ruelle")
            columns.append(np.exp(fit.intercept + fit.slope * series.t.astype(float)))
        except ValueError as exc:
            derived.append(("derived.alpha1_tail", f"skipped ({exc})"))
    else:
        derived.append(("derived.alpha1_tail", "skipped (window does not fit in t_max)"))

    if config.map == CAT and config.map_param == 0.0 and config.operators == "XP":
        exact = [analytic_cat_otoc(int(t), config.n) for t in series.t]
        header += ["C_exact", "O1_abs_exact", "O2_exact"]
        columns += [np.array([e.c for e in exact]),
                    np.array([abs(e.o1) for e in exact]),
                    np.array([e.o2 for e in exact])]

    rows = [[col[i] for col in columns] for i in range(len(series.t))]
    csv_path = outdir / "otoc.csv"
    _write_csv(csv_path, header, rows)
    _write_manifest(outdir, config, derived, [csv_path], time.monotonic() - start)
    return dict(derived)


_SWEEP_AXES = ("epsilon", "k", "N")


def _with_value(config: RunConfig, axis: str, value: float) -> RunConfig:
    if axis == "N" and not float(value).is_integer():
        raise CliError(f"N must be an integer, got {value:g}")
    sub_out = str(Path(config.outputs) / f"{axis}={value:g}")
    if axis == "epsilon":
        return dataclasses.replace(config, epsilon=value, outputs=sub_out)
    if axis == "k":
        return dataclasses.replace(config, map_param=value, outputs=sub_out)
    return dataclasses.replace(config, n=int(value), outputs=sub_out)


def _sweep_worker(task: tuple[RunConfig, str, float]) -> dict:
    config, axis, value = task
    return run_otoc(_with_value(config, axis, value))


def run_sweep(config: RunConfig, axis: str, values: list[float], jobs: int = 1) -> Path:
    """One otoc sub-run per value plus a summary CSV (written last).

    Sub-run failures, including invalid substituted configs, are recorded in
    the summary but do not abort the sweep.
    """
    if axis not in _SWEEP_AXES:
        raise CliError(f"sweep axis must be one of {_SWEEP_AXES}, got {axis!r}")
    if not values:
        raise CliError("sweep values list is empty")
    tasks = [(config, axis, v) for v in values]
    results: list[dict | Exception] = [None] * len(tasks)  # type: ignore[list-item]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_sweep_worker, task): i for i, task in enumerate(tasks)}
            for fut in concurrent.futures.as_completed(futures):
                i = futures[fut]
                try:
                    results[i] = fut.result()
                except Exception as exc:  # recorded per sub-run
                    results[i] = exc
    else:
        for i, task in enumerate(tasks):
            try:
                results[i] = _sweep_worker(task)
            except Exception as exc:
                results[i] = exc

    rows = []
    for value, result in zip(values, results):
        if isinstance(result, Exception):
            rows.append([value, "error", "", "", "", "", str(result).replace(",", ";")])
            continue
        rows.append([
            value, "ok",
            result.get("derived.alpha1_tail", ""),
            result.get("derived.alpha1_tail_r2", ""),
            result.get("derived.lyapunov_fit", ""),
            result.get("derived.lyapunov_fit_r2", ""),
            "",
        ])
    summary = config.output_dir() / "summary.csv"
    _write_csv(summary, ["value", "status", "alpha1_tail", "alpha1_r2",
                         "lambda_fit", "lambda_r2", "error"], rows)
    return summary


def run_resonances(config: RunConfig, method: str, depth: int = 40,
                   n_wanted: int = 10, seed_op: str = "sine") -> Path:
    """Channel eigenvalues to resonances.csv; dense is refused above N=24.

    A Krylov run whose real basis, 8 (depth + 1) N^2 bytes without a parity
    sector (half that with one), exceeds physical memory is refused before
    anything is allocated.
    """
    start = time.monotonic()
    if method not in ("dense", "krylov"):
        raise CliError(f"method must be dense or krylov, got {method!r}")
    if method == "krylov":
        _refuse_beyond_memory(8 * (depth + 1) * config.n ** 2,
                              "Krylov basis (8 x (depth + 1) x N^2 bytes)")
    outdir = config.output_dir()
    spec = config.map_spec()
    space = TorusSpace(config.n)
    umap = quantize(spec, space, config.kick_mode)
    kernel = build_kernel(space, config.epsilon) if config.epsilon > 0 else None
    derived: list[tuple[str, str]] = [("derived.method", method)]
    if method == "dense":
        if config.n > 24:
            raise CliError(f"dense resonances need N <= 24, got N={config.n}")
        spectrum = full_spectrum(dense_superoperator(umap, kernel),
                                 params={"n": config.n, "epsilon": config.epsilon})
        converged = spectrum.converged
    else:
        if seed_op == "sine":
            a0 = sine_position(space)
        elif seed_op == "random":
            a0 = random_traceless_hermitian(space, seed=config.seed)
        else:
            raise CliError(f"seed_op must be sine or random, got {seed_op!r}")
        spectrum = krylov_leading(umap, kernel, a0, depth=depth, n_wanted=n_wanted)
        converged = spectrum.converged
        derived += [("derived.depth", str(depth)), ("derived.seed_op", seed_op),
                    ("derived.krylov_sector", spectrum.params["sector"]),
                    ("derived.krylov_dim", str(spectrum.params["krylov_dim"])),
                    ("derived.krylov_matvecs", str(spectrum.params["matvecs"]))]
    derived.append(("derived.alpha1_abs", _fmt(float(abs(spectrum.alpha1)))))
    derived.append(("derived.degenerate_leaders", str(spectrum.degenerate)))

    rows = []
    for i, alpha in enumerate(spectrum.alphas):
        resid = spectrum.residuals[i] if spectrum.residuals is not None else float("nan")
        rows.append([i, float(alpha.real), float(alpha.imag), float(abs(alpha)),
                     float(resid), int(bool(converged[i]))])
    csv_path = outdir / "resonances.csv"
    _write_csv(csv_path, ["index", "alpha_re", "alpha_im", "alpha_abs", "residual", "converged"], rows)
    _write_manifest(outdir, config, derived, [csv_path], time.monotonic() - start)
    return csv_path


def run_lyapunov(config: RunConfig, n_traj: int = 200, t_horizon: int = 1000) -> Path:
    """Classical Lyapunov exponents of the configured map to lyapunov.csv."""
    start = time.monotonic()
    outdir = config.output_dir()
    est = lyapunov(config.map_spec(), n_traj=n_traj, t_horizon=t_horizon, seed=config.seed)
    csv_path = outdir / "lyapunov.csv"
    _write_csv(csv_path,
               ["lambda", "lambda_generalized", "standard_error", "n_trajectories",
                "t_horizon", "seed", "resampled"],
               [[est.lam, est.lam_generalized, est.standard_error, est.n_trajectories,
                 est.t_horizon, est.seed, est.resampled]])
    derived = [("derived.t_ehrenfest", _fmt(ehrenfest_time(config.n, est.lam)))] \
        if est.lam > 0 else []
    _write_manifest(outdir, config, derived, [csv_path], time.monotonic() - start)
    return csv_path


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override its entries")
    parser.add_argument("--map", choices=_MAP_KINDS)
    parser.add_argument("--n", type=int)
    parser.add_argument("--map-param", type=float, dest="map_param")
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--t-max", type=int, dest="t_max")
    parser.add_argument("--operators")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--kick-mode", choices=_KICK_MODES, dest="kick_mode")
    parser.add_argument("--out", dest="outputs")
    parser.add_argument("--tail-fit-start", type=int, dest="tail_fit_start")
    parser.add_argument("--tail-fit-end", type=int, dest="tail_fit_end")
    parser.add_argument("--lyap-fit-start", type=int, dest="lyap_fit_start")
    parser.add_argument("--lyap-fit-end", type=int, dest="lyap_fit_end")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in _CONFIG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if "map" not in values:
        raise CliError("map is required (flag --map or config key map)")
    if "n" not in values:
        raise CliError("n is required (flag --n or config key n)")
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise CliError(str(exc)) from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="otoclab",
                                     description="OTOC laboratory for quantized torus maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_otoc = sub.add_parser("otoc", help="compute one correlator series")
    _add_config_flags(p_otoc)

    p_sweep = sub.add_parser("sweep", help="one otoc run per swept value plus a summary")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list of values for the swept axis")
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_res = sub.add_parser("resonances", help="extract channel eigenvalues")
    _add_config_flags(p_res)
    p_res.add_argument("--method", required=True, choices=("dense", "krylov"))
    p_res.add_argument("--depth", type=int, default=40)
    p_res.add_argument("--n-wanted", type=int, default=10, dest="n_wanted")
    p_res.add_argument("--seed-op", choices=("sine", "random"), default="sine", dest="seed_op")

    p_lyap = sub.add_parser("lyapunov", help="classical Lyapunov exponents")
    _add_config_flags(p_lyap)
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
