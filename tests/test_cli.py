import concurrent.futures
import dataclasses
import os
import subprocess
import sys
import tracemalloc
import typing
import warnings

import numpy as np
import pytest

from otoclab import cli, phase_space, resonances
from otoclab.cli import (CliError, RunConfig, main, parse_config_file, run_otoc,
                         run_resonances, run_sweep)


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "otoclab.cli", *args],
                          capture_output=True, text=True, env=env)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""# comment line
map = cat
n = 64            # trailing comment
map_param = 0.0
epsilon=0.01
""")
    values = parse_config_file(cfg)
    assert values == {"map": "cat", "n": 64, "map_param": 0.0, "epsilon": 0.01}


def test_parse_config_rejects_unknown_and_duplicate_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("map = cat\nnn = 64\n")
    with pytest.raises(CliError, match="unknown config key"):
        parse_config_file(bad)
    dup = tmp_path / "dup.cfg"
    dup.write_text("map = cat\nmap = standard\n")
    with pytest.raises(CliError, match="duplicate"):
        parse_config_file(dup)


def test_run_config_validation():
    with pytest.raises(CliError):
        RunConfig(map="lozi", n=64)
    with pytest.raises(CliError):
        RunConfig(map="cat", n=64, epsilon=-1.0)
    with pytest.raises(CliError):
        RunConfig(map="cat", n=64, operators="XY")
    RunConfig(map="cat", n=64, operators="F(1,0;0,1)")


def test_run_config_refuses_short_runs_and_unknown_kick_modes():
    with pytest.raises(CliError, match="t_max must be >= 1, got 0"):
        RunConfig(map="cat", n=64, t_max=0)
    with pytest.raises(CliError, match="kick_mode must be one of .* got 'sideways'"):
        RunConfig(map="cat", n=64, kick_mode="sideways")


def test_parse_config_refuses_unreadable_files_and_bad_lines(tmp_path):
    with pytest.raises(CliError, match="cannot read config file .*missing.cfg"):
        parse_config_file(tmp_path / "missing.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("map = cat\nn 64\n")
    with pytest.raises(CliError, match="bad.cfg:2: expected key=value, got 'n 64'"):
        parse_config_file(bad)
    bad.write_text("# n is an integer\nn = sixty-four\n")
    with pytest.raises(CliError, match="bad.cfg:2: bad value for n: 'sixty-four'"):
        parse_config_file(bad)


def test_run_otoc_emits_exact_row(tmp_path):
    config = RunConfig(map="cat", n=64, map_param=0.0, t_max=8,
                       outputs=str(tmp_path / "run"))
    run_otoc(config)
    header, rows = read_csv(tmp_path / "run" / "otoc.csv")
    assert header[:6] == ["t", "C", "O1_re", "O1_im", "O1_abs", "O2"]
    c3 = float(rows[3][header.index("C")])
    assert c3 == pytest.approx(np.sin(13 * np.pi / 64) ** 2, abs=1e-10)
    assert float(rows[3][header.index("O2")]) == pytest.approx(0.25, abs=1e-10)
    # analytic overlay present for the unperturbed cat, and equal to C at even N
    c, c_exact = (np.array([float(row[header.index(k)]) for row in rows]) for k in ("C", "C_exact"))
    assert np.abs(c - c_exact).max() <= 1e-12
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    assert "config.map=cat" in manifest
    assert "derived.lambda_classical=" in manifest
    assert "file.otoc.csv.sha256=" in manifest
    for key in ("python", "numpy", "scipy", "blas", "cpu_count",
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert f"\nenvironment.{key}=" in manifest
    # odd N breaks the closed form at the wrap, so no overlay is written there
    run_otoc(RunConfig(map="cat", n=63, map_param=0.0, t_max=6, outputs=str(tmp_path / "odd")))
    header, _ = read_csv(tmp_path / "odd" / "otoc.csv")
    assert header[:6] == ["t", "C", "O1_re", "O1_im", "O1_abs", "O2"]
    assert not [k for k in header if k.endswith("_exact")]


def test_run_otoc_deterministic_bytes(tmp_path):
    config = RunConfig(map="standard", n=32, map_param=5.0, epsilon=0.2, t_max=6,
                       seed=7, outputs=str(tmp_path / "a"))
    run_otoc(config)
    first = (tmp_path / "a" / "otoc.csv").read_bytes()
    run_otoc(config)
    assert (tmp_path / "a" / "otoc.csv").read_bytes() == first


def test_cli_otoc_subprocess_and_env_root(tmp_path):
    result = run_cli(["otoc", "--map", "cat", "--n", "32", "--map-param", "0",
                      "--t-max", "5", "--out", "sub"],
                     env_extra={"OTOCLAB_OUTPUT_ROOT": str(tmp_path)})
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "sub" / "otoc.csv").exists()


def test_otoc_csv_bytes_independent_of_blas_threads(tmp_path):
    """The O1/O2 sums are no BLAS reductions, so otoc.csv keeps its bytes
    whatever the BLAS thread count."""
    csv = {}
    for threads in ("1", "2"):
        result = run_cli(["otoc", "--map", "cat", "--n", "64", "--epsilon", "0.1",
                          "--t-max", "10", "--out", threads],
                         env_extra={"OTOCLAB_OUTPUT_ROOT": str(tmp_path),
                                    "OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr
        csv[threads] = (tmp_path / threads / "otoc.csv").read_bytes()
    assert csv["1"] == csv["2"]


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"map = cat\nn = 32\nt_max = 4\noutputs = {tmp_path / 'c'}\n")
    result = run_cli(["otoc", "--config", str(cfg), "--t-max", "6"])
    assert result.returncode == 0, result.stderr
    header, rows = read_csv(tmp_path / "c" / "otoc.csv")
    assert len(rows) == 7  # t_max flag overrode the config value


def test_cli_error_line_on_bad_config(tmp_path):
    result = run_cli(["otoc", "--map", "cat"])  # missing n
    assert result.returncode == 1
    assert result.stderr.strip().startswith("ERROR:")


def test_cli_rejects_nan_epsilon(tmp_path):
    result = run_cli(["otoc", "--map", "cat", "--n", "16", "--epsilon", "nan",
                      "--out", str(tmp_path / "nan")])
    assert result.returncode == 1
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:") and "epsilon" in lines[0]
    assert not (tmp_path / "nan").exists()


@pytest.mark.parametrize("argv, name", [
    (["otoc", "--t-max", "2", "--epsilon", "1e308"], "epsilon"),
    (["otoc", "--t-max", "2", "--map-param", "1e308"], "map parameter"),
    (["lyapunov", "--map-param", "1e308"], "map parameter")],
    ids=["otoc-epsilon", "otoc-map-param", "lyapunov-map-param"])
def test_cli_refuses_finite_parameters_that_overflow(tmp_path, argv, name):
    """Each of these exited 0 and wrote NaN: epsilon N, k N or the tangent norm
    overflowed.  Each is refused by name before anything is written."""
    out = tmp_path / "run"
    result = run_cli([*argv[:1], "--map", "cat", "--n", "16", *argv[1:], "--out", str(out)])
    assert result.returncode == 1
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:") and name in lines[0]
    assert not out.exists()


def test_sweep_records_an_overflowing_epsilon_as_error(tmp_path):
    config = RunConfig(map="cat", n=16, t_max=4, outputs=str(tmp_path / "sweep"))
    header, rows = read_csv(run_sweep(config, "epsilon", [0.01, 1e308]))
    assert rows[0][1] == "ok"
    assert rows[1][1] == "error" and "epsilon 1e+308 is too large" in rows[1][-1]


def test_cli_fit_window_starts_at_zero(tmp_path):
    out = tmp_path / "zero"
    assert main(["otoc", "--map", "cat", "--n", "32", "--map-param", "0.02", "--epsilon", "0.2",
                 "--t-max", "12", "--tail-fit-start", "0", "--lyap-fit-start", "0",
                 "--out", str(out)]) == 0
    manifest = dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())
    assert manifest["derived.alpha1_tail_window"] == "0:12"
    assert manifest["derived.lyapunov_fit_window"].startswith("0:")


@pytest.mark.parametrize("argv, reason", [
    (["--n", "64", "--epsilon", "0.05", "--t-max", "12", "--tail-fit-end", "20"],
     "t_end 20 is past the series' last step t = 12"),
    # the default tail window starts at ceil(t_E) + 2 = 10 and ends at t_max
    (["--n", "1024", "--epsilon", "0.01", "--t-max", "10"],
     "window [10, 10] holds fewer than the 4 samples the fit needs")],
    ids=["tail-end-past-t-max", "default-tail-window-past-t-max"])
def test_cli_records_a_tail_window_the_fit_refuses_as_skipped(tmp_path, argv, reason):
    """A tail window that ends past t_max, or holds fewer than four samples, is refused by
    fit_tail_rate; the run still writes its series and records the refusal."""
    out = tmp_path / "run"
    assert main(["otoc", "--map", "cat", "--map-param", "0.02", *argv, "--out", str(out)]) == 0
    manifest = dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())
    assert manifest["derived.alpha1_tail"] == f"skipped ({reason})"
    assert "derived.alpha1_tail_window" not in manifest
    header, rows = read_csv(out / "otoc.csv")
    assert "ref_ruelle" not in header and "ref_lyapunov" in header
    assert len(rows) == int(argv[argv.index("--t-max") + 1]) + 1


def test_cli_records_a_growth_window_past_t_max_as_skipped(tmp_path):
    """Only the default growth end is clamped to t_max; a given end past it is refused by
    fit_growth (it was clamped before), and the tail fit still runs."""
    out = tmp_path / "run"
    assert main(["otoc", "--map", "cat", "--n", "64", "--map-param", "0.02", "--epsilon",
                 "0.05", "--t-max", "12", "--lyap-fit-end", "20", "--out", str(out)]) == 0
    manifest = dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())
    assert manifest["derived.lyapunov_fit"] == (
        "skipped (window end 20 is past the series' last step t = 12)")
    header, _ = read_csv(out / "otoc.csv")
    assert "ref_lyapunov" not in header and "ref_ruelle" in header


def test_cli_rejects_bad_fit_windows(tmp_path):
    result = run_cli(["otoc", "--map", "cat", "--n", "32", "--map-param", "0.02",
                      "--epsilon", "0.1", "--t-max", "12", "--tail-fit-start", "-3",
                      "--lyap-fit-start", "-2", "--out", str(tmp_path / "neg")])
    assert result.returncode == 1
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:") and "tail_fit_start" in lines[0]
    assert not (tmp_path / "neg").exists()
    for bad in ({"tail_fit_end": -1}, {"lyap_fit_end": -1}, {"lyap_fit_start": -2},
                {"tail_fit_start": 9, "tail_fit_end": 8}, {"lyap_fit_start": 4, "lyap_fit_end": 3}):
        with pytest.raises(CliError, match=next(iter(bad))):
            RunConfig(map="cat", n=32, **bad)
    RunConfig(map="cat", n=32, tail_fit_start=0, tail_fit_end=0, lyap_fit_start=0, lyap_fit_end=2)


def test_manifest_records_run_warnings(tmp_path):
    """A run's warnings go to its manifest, one flattened line each, and to stderr."""
    out = tmp_path / "warn"
    result = run_cli(["otoc", "--map", "cat", "--n", "128", "--map-param", "0.02",
                      "--epsilon", "0.1", "--t-max", "16", "--out", str(out)])
    assert result.returncode == 0, result.stderr
    assert "UserWarning: Lyapunov fit R^2 = 0.6700 below 0.98" in result.stderr
    lines = (out / "manifest.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("warning.")] == [
        "warning.0=UserWarning: Lyapunov fit R^2 = 0.6700 below 0.98; "
        "window may span a regime change"]


def test_cli_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("map = cat\nn = 32\nbogus = 1\n")
    result = run_cli(["otoc", "--config", str(cfg)])
    assert result.returncode == 1
    assert "unknown config key" in result.stderr


def test_sweep_summary_and_subruns(tmp_path):
    config = RunConfig(map="cat", n=32, map_param=0.02, t_max=6,
                       outputs=str(tmp_path / "sweep"))
    summary = run_sweep(config, "epsilon", [0.01, 0.02, 0.05, 0.1])  # the sweep-eps values
    header, rows = read_csv(summary)
    assert header[0] == "value" and len(rows) == 4
    assert all(r[1] == "ok" for r in rows)
    assert sorted(p.name for p in (tmp_path / "sweep").iterdir() if p.is_dir()) == [
        "epsilon=0.01", "epsilon=0.02", "epsilon=0.05", "epsilon=0.1"]
    assert (tmp_path / "sweep" / "epsilon=0.1" / "otoc.csv").exists()
    assert (tmp_path / "sweep" / "epsilon=0.02" / "manifest.txt").exists()


def test_sweep_records_partial_failures(tmp_path):
    config = RunConfig(map="cat", n=32, t_max=6, outputs=str(tmp_path / "sweep"))
    summary = run_sweep(config, "N", [32.0, 1.0])  # N=1 is invalid
    header, rows = read_csv(summary)
    assert rows[0][1] == "ok"
    assert rows[1][1] == "error" and rows[1][-1] != ""


def test_sweep_records_fractional_n_as_error(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--map", "cat", "--n", "32", "--t-max", "5", "--axis", "N",
                 "--values", "32,32.7", "--out", str(out)]) == 0
    header, rows = read_csv(out / "summary.csv")
    assert rows[0][1] == "ok"
    assert rows[1][1] == "error" and "integer" in rows[1][-1]
    assert not (out / "N=32.7").exists()


@pytest.mark.parametrize("call, message", [
    (lambda c: run_sweep(c, "seed", [1.0]), "sweep axis must be one of .*, got 'seed'"),
    (lambda c: run_resonances(c, "arnoldi"), "method must be dense or krylov, got 'arnoldi'"),
    (lambda c: run_resonances(c, "krylov", depth=4, seed_op="cosine"),
     "seed_op must be sine or random, got 'cosine'")], ids=["axis", "method", "seed_op"])
def test_library_calls_refuse_what_argparse_choices_refuse(tmp_path, call, message):
    """argparse's choices keep these values from the CLI; a library caller gets the
    same refusal as a CliError, and nothing is written."""
    with pytest.raises(CliError, match=message):
        call(RunConfig(map="cat", n=16, outputs=str(tmp_path / "run")))
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_empty_values(tmp_path):
    config = RunConfig(map="cat", n=32, outputs=str(tmp_path / "s"))
    with pytest.raises(CliError, match="empty"):
        run_sweep(config, "epsilon", [])
    result = run_cli(["sweep", "--map", "cat", "--n", "32", "--axis", "epsilon",
                      "--values", "", "--out", str(tmp_path / "s2")])
    assert result.returncode == 1
    assert "ERROR:" in result.stderr


def test_sweep_parallel_matches_serial(tmp_path):
    config = RunConfig(map="cat", n=32, map_param=0.02, t_max=5,
                       outputs=str(tmp_path / "ser"))
    serial = run_sweep(config, "epsilon", [0.1, 0.3], jobs=1)
    config_par = RunConfig(map="cat", n=32, map_param=0.02, t_max=5,
                           outputs=str(tmp_path / "par"))
    parallel = run_sweep(config_par, "epsilon", [0.1, 0.3], jobs=2)
    assert serial.read_text() == parallel.read_text()
    a = (tmp_path / "ser" / "epsilon=0.1" / "otoc.csv").read_bytes()
    b = (tmp_path / "par" / "epsilon=0.1" / "otoc.csv").read_bytes()
    assert a == b


def test_summary_values_recomputable_from_raw_csv(tmp_path):
    """Every summary number is a pure function of the per-step CSV plus the
    windows recorded in the sub-run manifest, which also records the sub-run's warnings."""
    from otoclab.otoc import loglinear_fit

    config = RunConfig(map="cat", n=128, map_param=0.02, t_max=16,
                       outputs=str(tmp_path / "sweep"))
    summary = run_sweep(config, "epsilon", [0.1])
    header, rows = read_csv(summary)
    alpha_summary = float(rows[0][header.index("alpha1_tail")])
    sub = tmp_path / "sweep" / "epsilon=0.1"
    manifest = dict(line.split("=", 1) for line in (sub / "manifest.txt").read_text().splitlines())
    lo, hi = (int(v) for v in manifest["derived.alpha1_tail_window"].split(":"))
    oheader, orows = read_csv(sub / "otoc.csv")
    t = np.array([int(r[oheader.index("t")]) for r in orows])
    o1_abs = np.array([float(r[oheader.index("O1_abs")]) for r in orows])
    mask = (t >= lo) & (t <= hi)
    slope, _, _ = loglinear_fit(t[mask], o1_abs[mask])
    assert np.exp(slope / 2) == pytest.approx(alpha_summary, rel=1e-12)
    lo, hi = (int(v) for v in manifest["derived.lyapunov_fit_window"].split(":"))
    c = np.array([float(r[oheader.index("C")]) for r in orows])
    mask = (t >= lo) & (t <= hi)
    slope, _, _ = loglinear_fit(t[mask], c[mask])
    assert slope / 2 == pytest.approx(float(rows[0][header.index("lambda_fit")]), rel=1e-12)
    assert manifest["warning.0"].startswith("UserWarning: Lyapunov fit R^2 = 0.6700 below 0.98")


def test_run_otoc_with_translation_pair(tmp_path):
    config = RunConfig(map="cat", n=32, map_param=0.05, t_max=5,
                       operators="F(1,1;0,1)", outputs=str(tmp_path / "fop"))
    run_otoc(config)
    header, rows = read_csv(tmp_path / "fop" / "otoc.csv")
    assert "C_exact" not in header  # analytic overlay only applies to the sine pair
    assert len(rows) == 6


def test_resonances_dense_cli(tmp_path):
    config = RunConfig(map="cat", n=12, map_param=0.02, epsilon=0.7,
                       outputs=str(tmp_path / "res"))
    run_resonances(config, "dense")
    header, rows = read_csv(tmp_path / "res" / "resonances.csv")
    assert header == ["index", "alpha_re", "alpha_im", "alpha_abs", "residual", "converged"]
    assert abs(float(rows[0][3]) - 1.0) < 1e-10  # unital leading eigenvalue
    assert float(rows[0][4]) < 1e-10
    assert all(abs(float(r[3])) <= 1.0 + 1e-9 for r in rows)


def test_resonances_dense_refused_above_24(tmp_path):
    result = run_cli(["resonances", "--map", "cat", "--n", "30", "--method", "dense",
                      "--out", str(tmp_path / "res2")])
    assert result.returncode == 1
    assert "N <= 24" in result.stderr


def test_resonances_dense_refused_before_building(tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("built before the dense size check")

    monkeypatch.setattr(cli, "quantize", unreachable)
    monkeypatch.setattr(cli, "build_kernel", unreachable)
    code = main(["resonances", "--map", "cat", "--n", "30", "--epsilon", "0.1",
                 "--method", "dense", "--out", str(tmp_path / "dense")])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:") and "N <= 24" in lines[0]
    assert not (tmp_path / "dense").exists()


@pytest.mark.parametrize("n_wanted", ["0", "-1"])
def test_resonances_krylov_rejects_n_wanted_below_one(tmp_path, capsys, n_wanted):
    code = main(["resonances", "--map", "cat", "--n", "8", "--epsilon", "0.3",
                 "--method", "krylov", "--depth", "10", "--n-wanted", n_wanted,
                 "--out", str(tmp_path / "kry")])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:") and "n_wanted" in lines[0]
    assert not (tmp_path / "kry").exists()


def test_resonances_krylov_cli(tmp_path):
    result = run_cli(["resonances", "--map", "cat", "--n", "24", "--map-param", "0.02",
                      "--epsilon", "0.4", "--method", "krylov", "--depth", "20",
                      "--n-wanted", "3", "--seed-op", "random",
                      "--out", str(tmp_path / "kry")])
    assert result.returncode == 0, result.stderr
    header, rows = read_csv(tmp_path / "kry" / "resonances.csv")
    assert len(rows) == 3
    assert all(r[5] in ("0", "1") for r in rows)  # convergence flagged, never dropped
    manifest = dict(line.split("=", 1) for line in
                    (tmp_path / "kry" / "manifest.txt").read_text().splitlines())
    assert manifest["derived.krylov_dim"] == "20"
    # 20 Arnoldi steps + 3 residual matvecs: one for the real leader and two for the
    # complex pair after it, whose conjugate partner reuses its residual
    assert float(rows[0][2]) == 0 and rows[2][1:3] == [rows[1][1], "-" + rows[1][2]]
    assert rows[2][4] == rows[1][4]
    assert manifest["derived.krylov_matvecs"] == "23"
    assert manifest["derived.krylov_sector"] == "none"  # a random seed has no parity
    assert manifest["derived.krylov_reorth"].isdigit()  # second Gram-Schmidt passes


def _refused_before_building(monkeypatch, capsys, argv, out):
    """The ERROR line of a run refused before the map, the kernel or the seed is built."""
    def unreachable(*args, **kwargs):
        raise AssertionError("built before the memory preflight")

    for name in ("quantize", "build_kernel", "krylov_leading"):
        monkeypatch.setattr(cli, name, unreachable)
    assert main(argv + ["--out", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:")
    assert not out.exists()
    return lines[0]


def test_resonances_krylov_refused_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    """N=100000 at depth 90 in the odd sector of the sine seed needs about 4.0 TB: 3.6 TB
    of basis, half the N^2 reals a row, and 34 N^2 bytes of buffer and temporaries;
    refused before anything is built."""
    line = _refused_before_building(
        monkeypatch, capsys, ["resonances", "--map", "cat", "--n", "100000", "--epsilon",
                              "0.0001", "--method", "krylov", "--depth", "90"], tmp_path / "big")
    assert "3980.0 GB" in line


def test_resonances_krylov_preflight_sizes_a_random_seed_by_n_squared(tmp_path, monkeypatch,
                                                                      capsys):
    """A random seed has no parity: its basis keeps all N^2 reals a row, 7.3 TB, and the
    run needs 7.6 TB with its buffer and temporaries."""
    line = _refused_before_building(
        monkeypatch, capsys, ["resonances", "--map", "cat", "--n", "100000", "--epsilon",
                              "0.0001", "--method", "krylov", "--depth", "90", "--seed-op",
                              "random"], tmp_path / "big")
    assert "7620.0 GB" in line


@pytest.mark.parametrize("spec", ["cat", "standard", "harper"])
@pytest.mark.parametrize("n", [8, 9, 63, 64])
@pytest.mark.parametrize("seed_op", ["sine", "random"])
def test_krylov_preflight_predicts_the_sector_the_run_takes(tmp_path, spec, n, seed_op):
    """The predicted sector is the one recorded, and the preflight charges the basis of
    the recorded sector's dimension: the sine seed takes the odd sector under every map
    at even N and under Harper at odd N too."""
    out = tmp_path / "kry"
    assert main(["resonances", "--map", spec, "--n", str(n), "--map-param", "0.3",
                 "--epsilon", "0.5", "--method", "krylov", "--depth", "12", "--n-wanted", "3",
                 "--seed-op", seed_op, "--out", str(out)]) == 0
    manifest = dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())
    config = cli.RunConfig(map=spec, n=n)
    odd = cli._sector(config, odd=seed_op == "sine")
    assert odd is (seed_op == "sine" and (spec == "harper" or n % 2 == 0))
    assert manifest["derived.krylov_sector"] == ("odd" if odd else "none")
    need = (cli._OTOC_BASE_BYTES + cli._KRYLOV_BYTES_PER_N2 * n ** 2
            + 8 * 13 * resonances._RealSector(n, odd).dim)
    assert manifest["resource.preflight_mb"] == f"{need / 2**20:.1f}"


def test_otoc_refused_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    """N=100000 needs about 90 GB of working set, 9 N^2 bytes in the parity sector of
    an even N: refused before the map or the kernel is built, for a run and for a sweep
    sub-run alike.  The passes are pinned to one part, so the figure does not depend on
    the host's CPUs: each part beyond the first adds 0.5 MB + 800 N bytes."""
    def unreachable(*args, **kwargs):
        raise AssertionError("built before the memory preflight")

    monkeypatch.setattr(phase_space, "_part_count", 1)
    monkeypatch.setattr(cli, "quantize", unreachable)
    monkeypatch.setattr(cli, "build_kernel", unreachable)
    code = main(["otoc", "--map", "cat", "--n", "100000", "--epsilon", "0.0001",
                 "--out", str(tmp_path / "big")])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:") and "90.0 GB" in lines[0]
    assert not (tmp_path / "big").exists()
    summary = run_sweep(RunConfig(map="cat", n=16, epsilon=0.0001, outputs=str(tmp_path / "sw")),
                        "N", [100000.0])
    _, rows = read_csv(summary)
    assert rows[0][1] == "error" and "physical memory" in rows[0][6]
    assert not (tmp_path / "sw" / "N=100000").exists()


@pytest.mark.parametrize("spec", ["cat", "standard", "harper"])
@pytest.mark.parametrize("kick_mode", ["correspondence", "as_printed"])
@pytest.mark.parametrize("n", [8, 9, 63, 64])
def test_otoc_preflight_predicts_the_sector_the_run_takes(tmp_path, spec, kick_mode, n):
    """Every CLI operand is a displacement, which is odd, and the kick phases are
    mirror-symmetric under every map at even N and under Harper at every N, so the run
    takes the sector the preflight predicts from the map and N, and sizes it."""
    out = tmp_path / "otoc"
    assert main(["otoc", "--map", spec, "--n", str(n), "--map-param", "0.3", "--kick-mode",
                 kick_mode, "--epsilon", "0.1", "--t-max", "4", "--operators", "F(1,1;0,1)",
                 "--out", str(out)]) == 0
    manifest = dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())
    odd = cli._sector(cli.RunConfig(map=spec, n=n), odd=True)
    assert odd is (spec == "harper" or n % 2 == 0)
    assert manifest["derived.otoc_sector"] == ("odd" if odd else "none")
    per_n2 = cli._OTOC_SECTOR_BYTES_PER_N2 if odd else cli._OTOC_BYTES_PER_N2
    need = cli._OTOC_BASE_BYTES + cli._OTOC_BYTES_PER_STEP * 5 + per_n2 * n ** 2
    assert manifest["resource.preflight_mb"] == f"{need / 2**20:.1f}"


@pytest.mark.parametrize("v2, v1, limit", [
    ("max\n", "4000000000\n", None), ("4000000000\n", None, 4e9), (None, "4000000000\n", 4e9),
    (None, "9223372036854771712\n", None), (None, None, None), ("garbled\n", None, None)],
    ids=["v2-no-limit", "v2-limit", "v1-limit", "v1-no-limit", "no-files", "garbled"])
def test_memory_refusal_honours_a_cgroup_limit(tmp_path, monkeypatch, v2, v1, limit):
    """The preflight compares against the smaller of physical memory (8 GB here) and the
    cgroup's memory.max, or memory.limit_in_bytes without it; "max", a limit above
    physical memory, no file or a garbled one leave the physical-memory text."""
    for name, text in (("_MEMORY_MAX", v2), ("_MEMORY_LIMIT_V1", v1)):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        monkeypatch.setattr(cli, name, str(path))
    pages = {"SC_PHYS_PAGES": 2 * 10**6, "SC_PAGE_SIZE": 4000}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    cli._refuse_beyond_memory(3.9e9, "run")
    if limit is None:
        cli._refuse_beyond_memory(7.9e9, "run")
        with pytest.raises(CliError, match="^run needs 8.1 GB, more than the 8.0 GB of "
                                           "physical memory$"):
            cli._refuse_beyond_memory(8.1e9, "run")
    else:
        with pytest.raises(CliError, match="^run needs 4.1 GB, more than the 4.0 GB memory "
                                           "limit of this process's cgroup$"):
            cli._refuse_beyond_memory(4.1e9, "run")


def test_otoc_refused_beyond_a_cgroup_memory_limit(tmp_path, monkeypatch, capsys):
    """A cgroup limit of 50 MB refuses the N=1024 run (53.5 MB of preflight on one part,
    more on several) before anything is built."""
    path = tmp_path / "memory.max"
    path.write_text("50000000\n")
    monkeypatch.setattr(cli, "_MEMORY_MAX", str(path))
    line = _refused_before_building(monkeypatch, capsys, ["otoc", "--map", "cat", "--n", "1024",
                                                          "--epsilon", "0.01"], tmp_path / "run")
    assert "0.1 GB, more than the 0.1 GB memory limit of this process's cgroup" in line


def test_otoc_t_max_refused_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    """t_max = 10^12 needs about 970 TB of series arrays and CSV text even at
    N=8: refused before the map or the kernel is built."""
    def unreachable(*args, **kwargs):
        raise AssertionError("built before the memory preflight")

    monkeypatch.setattr(cli, "quantize", unreachable)
    monkeypatch.setattr(cli, "build_kernel", unreachable)
    code = main(["otoc", "--map", "cat", "--n", "8", "--t-max", "1000000000000",
                 "--out", str(tmp_path / "long")])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:") and "t_max" in lines[0]
    assert not (tmp_path / "long").exists()


def test_otoc_preflight_bounds_peak_rss(tmp_path):
    """The preflight that a run records is at least the peak RSS it then reaches.

    The run is started straight from the test process: the recorded peak must
    be the run's own high-water mark, which does not start from the spawner's
    memory as ru_maxrss does."""
    for n in (256, 768):
        out = tmp_path / f"n{n}"
        result = run_cli(["otoc", "--map", "cat", "--n", str(n), "--map-param", "0.02",
                          "--epsilon", "0.01", "--t-max", "18", "--operators", "F(1,1;0,1)",
                          "--out", str(out)])
        assert result.returncode == 0, result.stderr
        manifest = dict(line.split("=", 1) for line in
                        (out / "manifest.txt").read_text().splitlines())
        peak, preflight = (float(manifest[f"resource.{key}"])
                           for key in ("peak_rss_mb", "preflight_mb"))
        assert preflight >= peak > 0, n


def test_otoc_preflight_bounds_peak_rss_at_the_most_parts(tmp_path):
    """The preflight bounds the peak RSS also when the passes run in as many parts
    as N allows (N / 256), whatever the number of CPUs of the host: at N=1536 the
    six parts' threads and scratch pass the headroom of the one-part bound."""
    code = ("import sys; from otoclab import phase_space; phase_space._set_parts(64); "
            "from otoclab.cli import main; sys.exit(main(sys.argv[1:]))")
    for n in (768, 1536):
        out = tmp_path / f"n{n}"
        result = subprocess.run([sys.executable, "-c", code, "otoc", "--map", "cat",
                                 "--n", str(n), "--map-param", "0.02", "--epsilon", "0.01",
                                 "--t-max", "18", "--operators", "F(1,1;0,1)",
                                 "--out", str(out)], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        manifest = dict(line.split("=", 1) for line in
                        (out / "manifest.txt").read_text().splitlines())
        assert manifest["environment.otoclab_threads"] == "64"
        peak, preflight = (float(manifest[f"resource.{key}"])
                           for key in ("peak_rss_mb", "preflight_mb"))
        assert preflight >= peak > 0, n


@pytest.mark.parametrize("argv", [
    ["--map", "cat", "--n", "320", "--map-param", "0.02", "--epsilon", "0.03125",
     "--depth", "90", "--n-wanted", "10"],
    ["--map", "harper", "--n", "63", "--map-param", "0.94", "--epsilon", "0.16",
     "--depth", "30"],
    # the random seed, held by the caller, needs the most of the N^2 term below N=512
    ["--map", "cat", "--n", "480", "--map-param", "0.02", "--epsilon", "0.02",
     "--depth", "90", "--n-wanted", "10", "--seed-op", "random"]],
    ids=["cat-320-depth-90", "harper-63-depth-30", "cat-480-random-depth-90"])
def test_krylov_preflight_bounds_peak_rss(tmp_path, argv):
    """The Krylov preflight that a run records is at least the peak RSS it reaches, for
    the benchmark's N=320 sector run and an odd-N Harper run, as for otoc runs."""
    out = tmp_path / "kry"
    result = run_cli(["resonances", *argv, "--method", "krylov", "--out", str(out)])
    assert result.returncode == 0, result.stderr
    manifest = dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())
    peak, preflight = (float(manifest[f"resource.{key}"]) for key in ("peak_rss_mb", "preflight_mb"))
    assert preflight >= peak > 0


def test_cli_otoc_working_set_is_one_array(tmp_path):
    """A CLI otoc run allocates one N x N array: A and B are displacements
    written into the evolving buffer, never kept dense."""
    n = 512
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        code = main(["otoc", "--map", "cat", "--n", str(n), "--map-param", "0.02",
                     "--epsilon", "0.01", "--t-max", "8", "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1.6 * 16 * n**2


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_manifests_all_carry_the_estimate_warnings(tmp_path, jobs):
    """The classical estimate is computed once per map, but the warning it raised is
    recorded in every sub-run's manifest, in a serial and a parallel sweep alike."""
    out = tmp_path / "sweep"
    result = run_cli(["sweep", "--map", "harper", "--n", "80", "--map-param", "0.3",
                      "--t-max", "12", "--axis", "epsilon", "--values", "0.05,0.1",
                      "--jobs", str(jobs), "--out", str(out)])
    assert result.returncode == 0, result.stderr
    for value in ("0.05", "0.1"):
        lines = (out / f"epsilon={value}" / "manifest.txt").read_text().splitlines()
        assert any(line.startswith("warning.") and "=UserWarning: Lyapunov standard error "
                   in line for line in lines), (value, lines)


class _CountingLyapunov:
    """Stands in for ``cli.lyapunov``: a fixed estimate, calls counted by map."""

    def __init__(self):
        self.calls = []

    def __call__(self, spec, n_traj, t_horizon, seed):
        from otoclab.classical import LyapunovEstimate
        self.calls.append(spec)
        return LyapunovEstimate(0.9, 1.0, n_traj, t_horizon, 0.001, seed, 0)


def test_sweep_estimates_lyapunov_once_per_map(tmp_path, monkeypatch):
    """The classical estimate depends on the map and the seed only: a sweep
    over epsilon computes it once, a sweep over k once per value."""
    fake = _CountingLyapunov()
    monkeypatch.setattr(cli, "lyapunov", fake)
    config = RunConfig(map="cat", n=16, map_param=0.02, t_max=5, outputs=str(tmp_path / "e"))
    run_sweep(config, "epsilon", [0.1, 0.2, 0.3])
    assert len(fake.calls) == 1
    run_sweep(dataclasses.replace(config, outputs=str(tmp_path / "k")), "k", [0.0, 0.01, 0.03])
    assert [spec.k for spec in fake.calls[1:]] == [0.0, 0.01, 0.03]


@pytest.mark.parametrize("module", ["otoclab", "otoclab.cli"])
def test_import_loads_no_scipy_submodules(module):
    """A run imports scipy.linalg and scipy.special only where it calls them, and the
    manifest's version and checksum libraries, scipy and hashlib, only when it writes;
    what ``import numpy`` loads itself is not counted."""
    code = (f"import sys, numpy; before = set(sys.modules); import {module}; "
            "print(sorted(m for m in ('scipy', 'scipy.linalg', 'scipy.special', 'hashlib') "
            "if m in sys.modules and m not in before))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "[]"


_SPY = """
import sys
import numpy
before = set(sys.modules)  # what numpy loads itself is not the package's to defer
from otoclab import cli

def spy(name):
    real = getattr(cli, name)

    def call(*args, **kwargs):
        print(name, sorted(m for m in ("hashlib", "_hashlib", "scipy", "numpy.random")
                           if m in sys.modules and m not in before))
        return real(*args, **kwargs)
    setattr(cli, name, call)

spy("otoc_series")
spy("krylov_leading")
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, entry", [
    (["otoc", "--map", "cat", "--n", "64", "--map-param", "0.02", "--epsilon", "0.05",
      "--t-max", "8"], "otoc_series"),
    (["resonances", "--map", "cat", "--n", "32", "--map-param", "0.02", "--epsilon", "0.3",
      "--method", "krylov", "--depth", "20", "--n-wanted", "3"], "krylov_leading"),
], ids=["otoc", "krylov-sine"])
def test_n2_compute_runs_before_the_libraries_it_does_not_call(tmp_path, argv, entry):
    """The N x N compute of an otoc run and of a sine-seeded Krylov run starts before
    OpenSSL (hashlib), scipy and numpy.random are loaded: the manifest's checksum and
    version and the classical estimate load them once the run's arrays are freed, so
    they do not add to its peak RSS."""
    result = subprocess.run([sys.executable, "-c", _SPY, *argv, "--out", str(tmp_path / "run")],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"{entry} []"]


def test_random_seed_krylov_run_holds_no_seed_through_the_loop(tmp_path, monkeypatch):
    """A --seed-op random Krylov run passes krylov_leading its integer seed, and the call
    drops the array it draws once the basis holds it: during the Arnoldi steps after the
    first image the only traced blocks of at least 16 N^2 bytes are the working buffer
    and the basis, on any interpreter."""
    n, depth, seen = 48, 16, []
    step = resonances._step

    def snapshotting(umap, mask, at, scratch=None):
        seen.append(sorted(t.size for t in tracemalloc.take_snapshot().traces
                           if t.size >= 16 * n * n))
        return step(umap, mask, at, scratch)

    monkeypatch.setattr(resonances, "_step", snapshotting)
    config = RunConfig(map="cat", n=n, map_param=0.02, epsilon=0.2, outputs=str(tmp_path / "r"))
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_resonances(config, "krylov", depth=depth, n_wanted=3, seed_op="random")
    finally:
        tracemalloc.stop()
    basis = 8 * (depth + 1) * n * n  # a random seed has no parity sector
    assert len(seen) > depth
    assert all(sizes == sorted([16 * n * n, basis]) for sizes in seen[1:]), seen


def test_lyapunov_cli(tmp_path):
    result = run_cli(["lyapunov", "--map", "cat", "--n", "64", "--map-param", "0",
                      "--n-traj", "16", "--t-horizon", "100",
                      "--out", str(tmp_path / "lyap")])
    assert result.returncode == 0, result.stderr
    header, rows = read_csv(tmp_path / "lyap" / "lyapunov.csv")
    lam = float(rows[0][header.index("lambda")])
    assert lam == pytest.approx(np.log((3 + np.sqrt(5)) / 2), abs=1e-8)


def test_main_returns_zero(tmp_path):
    code = main(["otoc", "--map", "cat", "--n", "16", "--t-max", "3",
                 "--out", str(tmp_path / "m")])
    assert code == 0
    assert (tmp_path / "m" / "otoc.csv").exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size and the worker
    initializer with its arguments, and runs each task in this process, so
    that no worker process is started (and the initializer is not called)."""

    sizes: list = []
    inits: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        self.inits.append((initializer, initargs))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def test_sweep_pool_capped_by_values_and_cpus(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli.phase_space, "_usable_cpus", lambda: 3)
    config = RunConfig(map="cat", n=8, map_param=0.02, t_max=3, outputs=str(tmp_path / "s"))
    summary = run_sweep(config, "epsilon", [0.1, 0.2, 0.3, 0.4], jobs=100000)
    _, rows = read_csv(summary)
    assert [r[1] for r in rows] == ["ok"] * 4
    run_sweep(config, "epsilon", [0.1, 0.2], jobs=100000)
    run_sweep(config, "epsilon", [0.1, 0.2], jobs=1)  # serial: no pool at all
    monkeypatch.setattr(cli.phase_space, "_usable_cpus", lambda: 1)
    run_sweep(config, "epsilon", [0.1, 0.2], jobs=2)
    assert _RecordingPool.sizes == [3, 2]
    for jobs in (0, -1):
        with pytest.raises(CliError, match="jobs must be >= 1"):
            run_sweep(config, "epsilon", [0.1], jobs=jobs)
    code = main(["sweep", "--map", "cat", "--n", "8", "--axis", "epsilon", "--values", "0.1",
                 "--jobs", "0", "--out", str(tmp_path / "zero")])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:") and "jobs" in lines[0]
    assert not (tmp_path / "zero").exists()
    assert _RecordingPool.sizes == [3, 2]


def test_every_config_field_is_a_flag_a_key_and_echoed(tmp_path):
    """Each RunConfig field, set by its flag and by its config key, is echoed
    as config.<field> in the manifest."""
    hints = typing.get_type_hints(RunConfig)
    # strings are checked against choices or a pattern, so they are spelled
    # out; numbers differ per field, so that a flag bound to the wrong field shows
    strings = {"map": "standard", "kick_mode": "as_printed", "operators": "F(1,0;0,1)"}
    fields = dataclasses.fields(RunConfig)
    values = {}
    for i, f in enumerate(fields):
        if f.name != "outputs":
            kind = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
            values[f.name] = {str: strings.get(f.name), int: 4 + i, float: 0.125 * i}[kind]
    flag_out, key_out = tmp_path / "flags", tmp_path / "keys"
    argv = ["otoc", "--out", str(flag_out)]
    for key, value in values.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    assert main(argv) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items())
                   + f"outputs = {key_out}\n")
    assert main(["otoc", "--config", str(cfg)]) == 0
    for out in (flag_out, key_out):
        manifest = dict(line.split("=", 1)
                        for line in (out / "manifest.txt").read_text().splitlines())
        echoed = {key[len("config."):]: value for key, value in manifest.items()
                  if key.startswith("config.")}
        assert set(echoed) == {f.name for f in fields}
        assert echoed.pop("outputs") == str(out)
        assert {key: type(values[key])(value) for key, value in echoed.items()} == values


@pytest.mark.parametrize("cpus, parts", [(4, 2), (2, 1), (1, None)])
def test_sweep_workers_share_the_cpus(tmp_path, monkeypatch, cpus, parts):
    """On a 4-CPU host whose affinity set holds ``cpus``, each sweep worker runs its
    N x N passes in usable CPUs // workers parts; one usable CPU runs serially, no pool."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "inits", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(cli.phase_space, "_usable_cpus", lambda: cpus)
    config = RunConfig(map="cat", n=8, map_param=0.02, t_max=3, outputs=str(tmp_path / "s"))
    run_sweep(config, "epsilon", [0.1, 0.2], jobs=2)
    assert _RecordingPool.inits == ([] if parts is None else
                                    [(cli.phase_space._set_parts, (parts,))])


@pytest.mark.parametrize("axis, values", [("epsilon", "0.1,0.10,0.1000001"), ("N", "64,64.0")])
def test_sweep_refuses_values_that_share_a_directory(tmp_path, capsys, axis, values):
    """Sub-run directories are named <axis>=<value:g>: values that format alike would
    write the same files, so the sweep is refused before any sub-run starts."""
    out = tmp_path / "s"
    code = main(["sweep", "--map", "cat", "--n", "8", "--t-max", "3", "--axis", axis,
                 "--values", values, "--out", str(out)])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:") and "share" in lines[0], lines
    assert not out.exists()


def test_manifests_record_the_otoc_sector(tmp_path):
    """Every otoc manifest, a sweep sub-run's too, names the parity sector its series
    ran in: odd for the F_xi pair at even N, none where the cat map breaks parity."""
    def sector(path):
        return dict(line.split("=", 1) for line in path.read_text().splitlines())[
            "derived.otoc_sector"]

    config = RunConfig(map="cat", n=8, map_param=0.02, t_max=3, outputs=str(tmp_path / "even"))
    assert run_otoc(config)["derived.otoc_sector"] == "odd"
    assert sector(tmp_path / "even" / "manifest.txt") == "odd"
    run_otoc(dataclasses.replace(config, n=7, outputs=str(tmp_path / "odd")))
    assert sector(tmp_path / "odd" / "manifest.txt") == "none"
    run_sweep(dataclasses.replace(config, outputs=str(tmp_path / "s")), "N", [7, 8])
    assert sector(tmp_path / "s" / "N=7" / "manifest.txt") == "none"
    assert sector(tmp_path / "s" / "N=8" / "manifest.txt") == "odd"


def test_manifests_record_the_part_count(tmp_path):
    """An otoc run records its process's part count, a parallel sweep's sub-run its
    worker's share of the CPUs."""
    def threads(path):
        return dict(line.split("=", 1) for line in path.read_text().splitlines())[
            "environment.otoclab_threads"]

    config = RunConfig(map="cat", n=8, map_param=0.02, t_max=3, outputs=str(tmp_path / "one"))
    run_otoc(config)
    assert threads(tmp_path / "one" / "manifest.txt") == str(cli.phase_space._part_count)
    run_sweep(dataclasses.replace(config, outputs=str(tmp_path / "s")), "epsilon",
              [0.1, 0.2], jobs=2)
    workers = min(2, cli.phase_space._usable_cpus())
    share = cli.phase_space._usable_cpus() // workers if workers > 1 \
        else cli.phase_space._part_count
    for value in ("0.1", "0.2"):
        assert threads(tmp_path / "s" / f"epsilon={value}" / "manifest.txt") == str(max(1, share))


def test_otoc_manifest_records_the_layout_and_the_contraction(tmp_path):
    """The sine pair's B is diagonal in the momentum frame; F_(0,1) as B is not."""
    config = RunConfig(map="cat", n=8, map_param=0.02, t_max=3, outputs=str(tmp_path / "xp"))
    derived = run_otoc(config)
    assert (derived["derived.otoc_layout"], derived["derived.otoc_contraction"]) == (
        "plain 8", "diagonal")
    other = dataclasses.replace(config, operators="F(1,1;0,1)", outputs=str(tmp_path / "f"))
    assert run_otoc(other)["derived.otoc_contraction"] == "blocks"
    manifest = (tmp_path / "f" / "manifest.txt").read_text().splitlines()
    assert "derived.otoc_layout=plain 8" in manifest
    assert "derived.otoc_contraction=blocks" in manifest
