"""otoclab benchmark: the README CLI runs, timed end to end and traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an otoclab checkout.  Every repetition spawns a fresh
interpreter (``perfbench/child.py``) that imports ``otoclab.cli`` from
``src/`` and runs one README command, because CLI users pay the cold start on
every run: there is no warm-up.  Outputs go to ``.perfbench-out/`` and are
removed when the run ends.

Workloads (closed loop, one command at a time; the rationale is also in
BENCHMARK.json):

otoc-dephased      ``otoc --map cat --n 1024 --map-param 0.02 --epsilon 0.01
                   --t-max 18``, the README main panel.  Conjugation,
                   dephasing and the O1/O2 contraction run every step at a
                   power-of-two N, where ``einsum('ij,ji')`` is 4x slower than
                   at N=1000.
otoc-unitary       the same with ``--map-param 0.0 --t-max 22`` and no
                   epsilon.  The dephasing layer does no work, so a dephasing
                   change is predicted to leave it unchanged; C(t) has a
                   closed form, which gives an exact gate.
resonances-krylov  ``resonances --map cat --n 320 --map-param 0.02 --epsilon
                   0.03125 --method krylov --depth 90 --n-wanted 10``.
                   eps*N=10 and depth 90 as in the README's N=1000 run, which
                   takes 89 s and 1.6 GB; N=320 keeps three repetitions in a
                   run.  Gram-Schmidt over a 147 MB basis (1.3x the 105 MiB
                   L3) dominates.  The sine seed operator is used: a random
                   one left the leader unconverged at depth 90 (N=500, seeds
                   1 and 7).
sweep-eps          ``sweep --map cat --n 1000 --map-param 0.02 --t-max 18
                   --axis epsilon --values 0.01,0.02,0.05,0.1 --jobs 2``, the
                   only run of the process pool, four kernel builds and a
                   non-power-of-two N.

``--seed`` becomes the CLI ``--seed``, which drives the classical Lyapunov
sampling; that sets t_E and with it the default fit windows.  The Krylov
result does not depend on it.

With ``--trace 0`` the run first spawns a few interpreters that only import
``otoclab.cli`` (set-up samples), then repeats the workload for ``--seconds``
and prints the medians of the end-to-end metrics:

wall_s       spawn to exit of one CLI run
compute_s    time inside ``otoclab.cli.main()``
setup_s      spawn until ``import otoclab.cli`` returns
cpu_s        user plus system CPU of the run and its reaped workers
peak_rss_mb  peak RSS of the run, or of its largest process for the sweep

With ``--trace 1`` it runs the workload once untraced and once with every
public function of maps, coarse_graining, otoc, classical, resonances and cli
wrapped in a span, and prints per-layer totals, call counts and self times
(a span minus its child spans).  The tracing overhead is the traced
compute_s minus the untraced one.

Every repetition must exit 0, pass its workload's correctness gate, whose
reference does not come from otoclab, and write CSVs whose SHA-256 (checked
against the manifest) equal those of the first repetition.  Failures are
reported as ``failed`` out of ``attempted`` (fail_frac) and make ``correct``
false.  The last line of standard output is the JSON result.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

CHILD = Path(__file__).resolve().parent / "child.py"
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SPAWNS = 4

CAT_N = 1024
PUBLISHED_ALPHA1_TAIL = 0.526  # dissipative cat tail, N=1024, eps=0.01
KRYLOV_PLATEAU_ALPHA1 = 0.583  # |alpha_1| at N=1000 from Arnoldi and ARPACK


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def read_manifest(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cat_power_entry(t):
    """Top-left entry a_t of (2 1; 1 1)^t, by repeated integer products."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(t):
        a, b, c, d = 2 * a + b, a + b, 2 * c + d, c + d
    return a


def gate_otoc_unitary(out):
    rows = read_rows(out / "otoc.csv")
    gap = max(abs(float(r["C"]) - math.sin(math.pi * (cat_power_entry(int(r["t"])) % CAT_N) / CAT_N) ** 2)
              for r in rows)
    problems = [] if gap <= 1e-8 else [f"C(t) deviates from sin^2(pi a_t/N) by {gap:.2e} > 1e-8"]
    if len(rows) != 23:
        problems.append(f"expected t = 0..22, got {len(rows)} rows")
    return problems


def gate_otoc_dephased(out):
    rows = read_rows(out / "otoc.csv")
    problems = []
    c_last = float(rows[-1]["C"])
    if int(rows[-1]["t"]) != 18 or not c_last < 0.1:
        problems.append(f"C({rows[-1]['t']}) = {c_last} is not below 0.1 at t = 18")
    alpha = float(read_manifest(out / "manifest.txt")["derived.alpha1_tail"])
    if abs(alpha - PUBLISHED_ALPHA1_TAIL) > 0.1 * PUBLISHED_ALPHA1_TAIL:
        problems.append(f"alpha1_tail {alpha} is not within 10% of {PUBLISHED_ALPHA1_TAIL}")
    return problems


def gate_sweep(out):
    rows = read_rows(out / "summary.csv")
    problems = [f"sub-run {r['value']} has status {r['status']}" for r in rows if r["status"] != "ok"]
    if len(rows) != 4:
        problems.append(f"expected 4 sub-runs, got {len(rows)}")
    if problems:
        return problems
    alphas = [float(r["alpha1_tail"]) for r in rows]
    spread = (max(alphas) - min(alphas)) / statistics.median(alphas)
    if not spread < 0.1:
        problems.append(f"tail fits {alphas} spread by {spread:.1%}, not below 10%")
    return problems


def gate_krylov(out):
    lead = read_rows(out / "resonances.csv")[0]
    problems = [] if lead["converged"] == "1" else [f"leader not converged, residual {lead['residual']}"]
    modulus = float(lead["alpha_abs"])
    if abs(modulus - KRYLOV_PLATEAU_ALPHA1) > 0.1 * KRYLOV_PLATEAU_ALPHA1:
        problems.append(f"|alpha_1| = {modulus} is not within 10% of {KRYLOV_PLATEAU_ALPHA1}")
    return problems


@dataclass(frozen=True)
class Workload:
    argv: tuple
    gate: Callable[[Path], list]
    jobs: int = 1


WORKLOADS = {
    "otoc-dephased": Workload(("otoc", "--map", "cat", "--n", "1024", "--map-param", "0.02",
                               "--epsilon", "0.01", "--t-max", "18"), gate_otoc_dephased),
    "otoc-unitary": Workload(("otoc", "--map", "cat", "--n", "1024", "--map-param", "0.0",
                              "--t-max", "22"), gate_otoc_unitary),
    "resonances-krylov": Workload(("resonances", "--map", "cat", "--n", "320", "--map-param", "0.02",
                                   "--epsilon", "0.03125", "--method", "krylov", "--depth", "90",
                                   "--n-wanted", "10", "--seed-op", "sine"), gate_krylov),
    "sweep-eps": Workload(("sweep", "--map", "cat", "--n", "1000", "--map-param", "0.02",
                           "--t-max", "18", "--axis", "epsilon", "--values", "0.01,0.02,0.05,0.1",
                           "--jobs", "2"), gate_sweep, jobs=2),
}


@dataclass
class Spawn:
    """One child interpreter: its timings, resources and recorded result."""

    t_spawn: float
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    result: dict
    log: Path
    problems: list = field(default_factory=list)
    manifest_wall: float = 0.0

    @property
    def setup(self):
        return self.result["t_imported"] - self.t_spawn

    @property
    def compute(self):
        start, end = self.result["t_main"]
        return end - start


def spawn(mode, cli_args, workdir, deadline):
    """Run child.py in a new process group and reap it with its rusage."""
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    log = workdir / "child.log"
    env = dict(os.environ, OTOCLAB_OUTPUT_ROOT=str(workdir))
    argv = [sys.executable, str(CHILD), str(result_path), mode, *cli_args]
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    t_spawn = _now()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions, setpgroup=0)
    killer = threading.Timer(max(1.0, deadline - _now()), _kill_group, (pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
        _kill_group(pid)  # pool workers left behind by a crashed run
    wall = _now() - t_spawn
    rc = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        result = {}
    run = Spawn(t_spawn, rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                result, log)
    if rc != 0 or "t_imported" not in result:
        run.problems.append(f"exit code {rc}: {_tail(log)}")
    return run


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _tail(path, lines=5):
    try:
        return " | ".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return "(no log)"


def csv_digests(out):
    """SHA-256 of every CSV under ``out``; manifest records must match them."""
    digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.rglob("*.csv"))}
    problems = []
    for manifest in sorted(out.rglob("manifest.txt")):
        for key, value in read_manifest(manifest).items():
            if key.startswith("file.") and key.endswith(".sha256"):
                rel = str((manifest.parent / key[len("file."):-len(".sha256")]).relative_to(out))
                if digests.get(rel) != value:
                    problems.append(f"manifest digest of {rel} does not match the file")
    return digests, problems


def run_workload(workload, seed, workdir, index, mode, deadline, reference):
    """One gated repetition; ``reference`` holds the first repetition's digests."""
    repdir = workdir / f"rep{index}"
    cli_args = [*workload.argv, "--seed", str(seed), "--out", "out"]
    run = spawn(mode, cli_args, repdir, deadline)
    out = repdir / "out"
    if run.problems:
        return run
    try:
        run.problems += workload.gate(out)
        digests, problems = csv_digests(out)
        run.manifest_wall = sum(float(read_manifest(m)["wallclock_seconds"])
                                for m in out.rglob("manifest.txt"))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        run.problems.append(f"output unreadable: {exc!r}")
        return run
    run.problems += problems
    if not digests:
        run.problems.append("no CSV written")
    reference.setdefault("digests", digests)
    if digests != reference["digests"]:
        run.problems.append("CSV digests differ from the first repetition")
    return run


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def completed(reps, needed=1):
    done = [rep for rep in reps if rep.rc == 0 and "t_main" in rep.result]
    if len(done) < needed:
        raise BenchError("repetitions did not complete: "
                         + "; ".join(p for rep in reps for p in rep.problems))
    return done


def timed_samples(workload, seed, seconds, workdir, deadline):
    """Set-up spawns, then repetitions for ``seconds``: end-to-end samples."""
    setups = []
    for i in range(SETUP_SPAWNS):
        sample = spawn("import", [], workdir / f"setup{i}", deadline)
        if sample.problems:
            raise BenchError(f"set-up spawn failed: {sample.problems[0]}")
        setups.append(sample.setup)
    reference, reps = {}, []
    t_reps = _now()
    while not reps or (_now() - t_reps < seconds and _now() < deadline - 60):
        reps.append(run_workload(workload, seed, workdir, len(reps), "run", deadline, reference))
    done = completed(reps)
    samples = {
        "wall_s": ([r.wall for r in done], "s"),
        "compute_s": ([r.compute for r in done], "s"),
        "setup_s": (setups + [r.setup for r in done], "s"),
        "cpu_s": ([r.cpu for r in done], "s"),
        "peak_rss_mb": ([r.rss_mb for r in done], "MB"),
    }
    return reps, samples


def span_table(span_lists):
    """Calls, total and self seconds per function over every process's spans."""
    table = {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_time):
            entry = table.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
    return table


LAYER_FUNCTIONS = {
    "maps.conjugate": "maps.heisenberg_conjugate",
    "coarse_graining.dephase": "coarse_graining.apply_dephasing_chord",
    "otoc.series": "otoc.otoc_series",
    "coarse_graining.channel_step": "coarse_graining.channel_step",
    "resonances.krylov": "resonances.krylov_leading",
    "maps.quantize": "maps.quantize",
    "coarse_graining.kernel": "coarse_graining.build_kernel",
    "classical.lyapunov": "classical.lyapunov",
    "resonances.tail_fit": "resonances.fit_tail_rate",
}
# run_sweep is left out of cli.run_self_s: its self time is waiting on workers
RUN_FUNCTIONS = ("cli.run_otoc", "cli.run_resonances", "cli.run_lyapunov")


def traced_metrics(workload, seed, workdir, deadline):
    """One untraced and one traced repetition: per-layer metrics and a report."""
    reference = {}
    reps = [run_workload(workload, seed, workdir, 0, "run", deadline, reference),
            run_workload(workload, seed, workdir, 1, "trace", deadline, reference)]
    plain, traced = completed(reps, needed=2)
    main_spans = traced.result["spans"]
    worker_spans = [json.loads(p.read_text())
                    for p in sorted(traced.log.parent.glob("result.json.worker-*.json"))]
    table = span_table([main_spans, *worker_spans])

    def stat(layer, column):  # column 0: calls, 1: total seconds, 2: self seconds
        return table.get(LAYER_FUNCTIONS[layer], (0, 0.0, 0.0))[column]

    def per_call_ms(layer):
        return 1e3 * stat(layer, 1) / stat(layer, 0) if stat(layer, 0) else 0.0

    resonances = traced.log.parent / "out" / "resonances.csv"
    residual = float(read_rows(resonances)[0]["residual"]) if resonances.exists() else 0.0
    # the top-level run function is the one child of the cli.main root span
    run_span = next(end - start for _, start, end, parent in main_spans if parent == 0)
    overhead = traced.compute - plain.compute
    metrics = {
        "maps.conjugate_s": (stat("maps.conjugate", 1), "s"),
        "maps.conjugate_calls": (stat("maps.conjugate", 0), "count"),
        "maps.conjugate_ms": (per_call_ms("maps.conjugate"), "ms"),
        "coarse_graining.dephase_s": (stat("coarse_graining.dephase", 1), "s"),
        "coarse_graining.dephase_calls": (stat("coarse_graining.dephase", 0), "count"),
        "coarse_graining.dephase_ms": (per_call_ms("coarse_graining.dephase"), "ms"),
        "otoc.series_s": (stat("otoc.series", 1), "s"),
        "otoc.contract_self_s": (stat("otoc.series", 2), "s"),
        "coarse_graining.channel_step_s": (stat("coarse_graining.channel_step", 1), "s"),
        "coarse_graining.channel_step_calls": (stat("coarse_graining.channel_step", 0), "count"),
        "resonances.krylov_s": (stat("resonances.krylov", 1), "s"),
        "resonances.orthogonalize_self_s": (stat("resonances.krylov", 2), "s"),
        "resonances.leader_residual": (residual, "1"),
        "maps.quantize_s": (stat("maps.quantize", 1), "s"),
        "coarse_graining.kernel_s": (stat("coarse_graining.kernel", 1), "s"),
        "classical.lyapunov_s": (stat("classical.lyapunov", 1), "s"),
        "resonances.tail_fit_s": (stat("resonances.tail_fit", 1), "s"),
        "cli.run_self_s": (sum(table.get(fn, (0, 0.0, 0.0))[2] for fn in RUN_FUNCTIONS), "s"),
        "cli.sweep_parallel_eff": (traced.manifest_wall / (workload.jobs * run_span), "1"),
        "trace.overhead_s": (overhead, "s"),
    }

    report = [f"  spans: {len(main_spans)} in the CLI process, "
              f"{sum(map(len, worker_spans))} in {len(worker_spans)} worker records",
              f"  {'function':<40} {'calls':>6} {'total_s':>10} {'self_s':>10}"]
    for fn, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        report.append(f"  {fn:<40} {calls:>6} {total:>10.4f} {own:>10.4f}")
    # self times and child spans of the CLI process must add up to the time
    # measured around main(), up to the tracing overhead
    self_sum = sum(entry[2] for entry in span_table([main_spans]).values())
    gap = traced.compute - self_sum
    report.append(f"  closure: self times sum to {self_sum:.6f} s, traced compute_s "
                  f"{traced.compute:.6f} s, gap {gap:.2e} s, tracing overhead {overhead:.4f} s")
    if abs(gap) > max(abs(overhead), 1e-3):
        traced.problems.append(f"span self times miss the traced compute_s by {gap:.3g} s")
    if workload.jobs > 1 and not worker_spans:
        report.append("  no worker spans: the pool did not fork, so worker layers read 0")
    report += [f"  {name:<36} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return reps, metrics, report


def describe(name, values, unit):
    return (f"  {name:<12} {statistics.median(values):.6g} {unit}  (median of {len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "otoclab" / "cli.py").is_file():
        print(f"ERROR: {root} is not an otoclab checkout (no src/otoclab/cli.py)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cli_seed = args.seed % 2**32  # the CLI seeds a SeedSequence, which needs it >= 0
    start = _now()
    deadline = start + RUN_DEADLINE_S
    workdir = root / ".perfbench-out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        probe = spawn("env", [], workdir / "env", deadline)
        if probe.problems:
            raise BenchError(f"cannot import otoclab.cli: {probe.problems[0]}")
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        print("env " + json.dumps(probe.result["env"], sort_keys=True))
        if args.trace:
            reps, metrics, report = traced_metrics(workload, cli_seed, workdir, deadline)
        else:
            reps, samples = timed_samples(workload, cli_seed, args.seconds, workdir, deadline)
            metrics = {name: (statistics.median(values), unit)
                       for name, (values, unit) in samples.items()}
            report = [describe(name, values, unit) for name, (values, unit) in samples.items()]
        for i, rep in enumerate(reps):
            status = "ok" if not rep.problems else "FAILED: " + "; ".join(rep.problems)
            print(f"  rep {i}: wall {rep.wall:.4f} s, cpu {rep.cpu:.3f} s, "
                  f"rss {rep.rss_mb:.1f} MB, {status}")
        print("\n".join(report))
        failed = sum(1 for rep in reps if rep.problems)
        print(f"  fail_frac {failed / len(reps):.6g} ({failed} of {len(reps)} repetitions failed); "
              f"run took {_now() - start:.1f} s")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(reps),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    except BenchError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
