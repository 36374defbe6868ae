import os
import subprocess
import sys

import numpy as np
import pytest

from otoclab import cli
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


def test_run_otoc_emits_exact_row(tmp_path):
    config = RunConfig(map="cat", n=64, map_param=0.0, t_max=8,
                       outputs=str(tmp_path / "run"))
    run_otoc(config)
    header, rows = read_csv(tmp_path / "run" / "otoc.csv")
    assert header[:6] == ["t", "C", "O1_re", "O1_im", "O1_abs", "O2"]
    c3 = float(rows[3][header.index("C")])
    assert c3 == pytest.approx(np.sin(13 * np.pi / 64) ** 2, abs=1e-10)
    assert float(rows[3][header.index("O2")]) == pytest.approx(0.25, abs=1e-10)
    # analytic overlay present for the unperturbed cat
    assert "C_exact" in header
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    assert "config.map=cat" in manifest
    assert "derived.lambda_classical=" in manifest
    assert "file.otoc.csv.sha256=" in manifest
    for key in ("python", "numpy", "scipy", "blas", "cpu_count",
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert f"\nenvironment.{key}=" in manifest


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


def test_cli_fit_window_starts_at_zero(tmp_path):
    out = tmp_path / "zero"
    assert main(["otoc", "--map", "cat", "--n", "32", "--map-param", "0.02", "--epsilon", "0.2",
                 "--t-max", "12", "--tail-fit-start", "0", "--lyap-fit-start", "0",
                 "--out", str(out)]) == 0
    manifest = dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())
    assert manifest["derived.alpha1_tail_window"] == "0:12"
    assert manifest["derived.lyapunov_fit_window"].startswith("0:")


def test_cli_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("map = cat\nn = 32\nbogus = 1\n")
    result = run_cli(["otoc", "--config", str(cfg)])
    assert result.returncode == 1
    assert "unknown config key" in result.stderr


def test_sweep_summary_and_subruns(tmp_path):
    config = RunConfig(map="cat", n=32, map_param=0.02, t_max=6,
                       outputs=str(tmp_path / "sweep"))
    summary = run_sweep(config, "epsilon", [0.1, 0.2])
    header, rows = read_csv(summary)
    assert header[0] == "value" and len(rows) == 2
    assert all(r[1] == "ok" for r in rows)
    assert (tmp_path / "sweep" / "epsilon=0.1" / "otoc.csv").exists()
    assert (tmp_path / "sweep" / "epsilon=0.2" / "manifest.txt").exists()


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
    windows recorded in the sub-run manifest."""
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
    assert manifest["derived.krylov_matvecs"] == "23"  # 20 Arnoldi steps + 3 residual checks
    assert manifest["derived.krylov_sector"] == "none"  # a random seed has no parity


def test_resonances_krylov_refused_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    """N=100000 at depth 90 needs about 7.3 TB of basis: refused before the
    map or the kernel is built."""
    def unreachable(*args, **kwargs):
        raise AssertionError("built before the memory preflight")

    monkeypatch.setattr(cli, "quantize", unreachable)
    monkeypatch.setattr(cli, "build_kernel", unreachable)
    code = main(["resonances", "--map", "cat", "--n", "100000", "--epsilon", "0.0001",
                 "--method", "krylov", "--depth", "90", "--out", str(tmp_path / "big")])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:") and "7280.0 GB" in lines[0]
    assert not (tmp_path / "big").exists()


def test_otoc_refused_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    """N=100000 needs about 890 GB of working set: refused before the map or
    the kernel is built, for a run and for a sweep sub-run alike."""
    def unreachable(*args, **kwargs):
        raise AssertionError("built before the memory preflight")

    monkeypatch.setattr(cli, "quantize", unreachable)
    monkeypatch.setattr(cli, "build_kernel", unreachable)
    code = main(["otoc", "--map", "cat", "--n", "100000", "--epsilon", "0.0001",
                 "--out", str(tmp_path / "big")])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:") and "890.1 GB" in lines[0]
    assert not (tmp_path / "big").exists()
    summary = run_sweep(RunConfig(map="cat", n=16, epsilon=0.0001, outputs=str(tmp_path / "sw")),
                        "N", [100000.0])
    _, rows = read_csv(summary)
    assert rows[0][1] == "error" and "physical memory" in rows[0][6]
    assert not (tmp_path / "sw" / "N=100000").exists()


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
