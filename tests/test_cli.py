"""Command line interface: exit codes, config handling, output files."""

import csv
import json
import os
import xml.etree.ElementTree as ET

import pytest

import demix
from demix import cli


SOLVE_OK = ["solve", "--r", "1", "--K", "5", "--N", "5", "--L", "128",
            "--A", "gaussian", "--seed", "7"]


def _run(argv, tmp_path, extra_env=None, monkeypatch=None):
    """Invoke the CLI in-process with outputs routed to tmp_path."""
    argv = list(argv)
    if "--outdir" not in argv and (extra_env is None or "DEMIX_OUTDIR" not in extra_env):
        argv += ["--outdir", str(tmp_path)]
    if extra_env:
        assert monkeypatch is not None
        for key, val in extra_env.items():
            monkeypatch.setenv(key, val)
    return cli.main(argv)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_success_exit_zero(tmp_path):
    code = _run(SOLVE_OK, tmp_path)
    assert code == cli.EXIT_OK
    rows = _read_csv(tmp_path / "solve_report.csv")
    assert len(rows) == 2
    header = dict(zip(rows[0], rows[1]))
    assert header["converged"] == "True"
    assert float(header["rel_error"]) < 1e-3
    assert (tmp_path / "solve_config.txt").exists()


def test_config_log_round_trips(tmp_path):
    assert _run(SOLVE_OK, tmp_path) == cli.EXIT_OK
    cfg = tmp_path / "solve_config.txt"
    text = cfg.read_text()
    # Every non-comment line is a loadable "key = value" pair with no blanks.
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        key, _, val = line.partition(" = ")
        assert key.strip() and val.strip(), line
    code = _run(["solve", "--config", str(cfg), "--prefix", "rt_"], tmp_path)
    assert code == cli.EXIT_OK
    first = (tmp_path / "solve_report.csv").read_bytes()
    second = (tmp_path / "rt_report.csv").read_bytes()
    assert first == second


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("L = 128\nr = 1\nK = 5\nN = 5\nA = gaussian\nseed = 7\n")
    code = _run(["solve", "--config", str(cfg), "--seed", "9", "--prefix", "ov_"],
                tmp_path)
    assert code == cli.EXIT_OK
    logged = (tmp_path / "ov_config.txt").read_text()
    assert "seed = 9" in logged
    assert "L = 128" in logged


def test_unknown_config_key_names_it(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("L = 64\nwavelength = 3\n")
    code = _run(["solve", "--config", str(cfg)], tmp_path)
    assert code == cli.EXIT_USAGE
    assert "wavelength" in capsys.readouterr().err


def test_bad_dimension_exit_one(tmp_path):
    code = _run(["solve", "--r", "1", "--K", "5", "--N", "5", "--L", "0"], tmp_path)
    assert code == cli.EXIT_USAGE


def test_unknown_flag_exit_one(tmp_path):
    with pytest.raises(SystemExit) as info:
        _run(["solve", "--no-such-flag", "1"], tmp_path)
    assert info.value.code == cli.EXIT_USAGE


def test_recovery_failure_exit_two(tmp_path):
    # Far too few measurements for r=3: converges to the wrong matrix.
    code = _run(["solve", "--r", "3", "--K", "20", "--N", "20", "--L", "64",
                 "--A", "gaussian", "--seed", "7", "--max-iters", "1500"],
                tmp_path)
    assert code == cli.EXIT_RECOVERY


def test_degenerate_ball_exit_one(tmp_path, capsys):
    code = _run(SOLVE_OK + ["--mode", "ball", "--eta", "100.0"], tmp_path)
    assert code == cli.EXIT_USAGE
    assert "eta" in capsys.readouterr().err



def test_ball_mode_noiseless_exit_zero(tmp_path):
    # eta defaults to the instance noise norm, 0 here: the ball is the
    # affine set, which a noiseless y reaches
    code = _run(SOLVE_OK + ["--mode", "ball"], tmp_path)
    assert code == cli.EXIT_OK

def test_ball_missing_the_range_exit_one(tmp_path, capsys):
    # the noise norm is 0.1 and its least-squares residual 0.0900, out of
    # reach of a ball of radius 0.045
    code = _run(["solve", "--r", "1", "--K", "4", "--N", "4", "--L", "64",
                 "--noise", "0.1", "--seed", "55", "--rho", "4",
                 "--mode", "ball", "--eta", "0.045"], tmp_path)
    assert code == cli.EXIT_USAGE
    assert "misses the range" in capsys.readouterr().err


def test_non_finite_eta_exit_one(tmp_path, capsys):
    # NaN passes a plain eta < 0 check; in ball mode it stalled the radius
    # root-find (exit 2), and with no --mode it picked equality mode
    noisy = ["solve", "--L", "64", "--K", "4", "--N", "4", "--noise", "0.1", "--seed", "55"]
    for extra in (["--mode", "ball", "--eta", "nan"], ["--eta", "nan"]):
        assert _run(noisy + extra, tmp_path) == cli.EXIT_USAGE
        assert "eta" in capsys.readouterr().err


def test_gen_non_finite_noise_exit_one(tmp_path, capsys):
    # the noise norm is the instance's eta: NaN wrote an instance with no
    # noise in y and eta = nan
    assert _run(["gen", "--noise", "nan"], tmp_path) == cli.EXIT_USAGE
    assert "eta" in capsys.readouterr().err
    assert not (tmp_path / "gen_ensemble.json").exists()


def test_gen_then_solve_ensemble_file(tmp_path):
    code = _run(["gen", "--L", "64", "--r", "2", "--K", "6", "--N", "6",
                 "--seed", "3"], tmp_path)
    assert code == cli.EXIT_OK
    ens_path = tmp_path / "gen_ensemble.json"
    assert ens_path.exists()
    code = _run(["solve", "--ensemble", str(ens_path), "--prefix", "s2_"], tmp_path)
    assert code == cli.EXIT_OK
    rows = _read_csv(tmp_path / "s2_report.csv")
    assert dict(zip(rows[0], rows[1]))["converged"] == "True"


def test_missing_ensemble_file_exit_one(tmp_path, capsys):
    code = _run(["solve", "--ensemble", str(tmp_path / "nope.json")], tmp_path)
    assert code == cli.EXIT_USAGE
    assert "nope.json" in capsys.readouterr().err


def test_diagnose_non_finite_ensemble_exit_one(tmp_path, capsys):
    seeded = demix.make_ensemble(16, [(2, 2)], seed=3)
    ens_path = tmp_path / "bad.json"
    demix.save_ensemble(demix.from_matrices(seeded.B, seeded.A, seeded.truth), ens_path)
    doc = json.loads(ens_path.read_text())
    doc["A"][0]["re"][5] = float("nan")
    ens_path.write_text(json.dumps(doc))
    code = _run(["diagnose", "--ensemble", str(ens_path)], tmp_path)
    assert code == cli.EXIT_USAGE
    assert "non-finite" in capsys.readouterr().err


def test_diagnose_deterministic_and_exact(tmp_path):
    argv = ["diagnose", "--L", "64", "--r", "1", "--K", "6", "--N", "6",
            "--A", "gaussian", "--seed", "11", "--P", "4"]
    assert _run(argv, tmp_path) == cli.EXIT_OK
    first = (tmp_path / "diagnose_incoherence.csv").read_bytes()
    rows = _read_csv(tmp_path / "diagnose_incoherence.csv")
    rec = dict(zip(rows[0], rows[1]))
    # DFT rows have flat leverage, and a single pair has no cross term.
    assert float(rec["mu_max_sq"]) == 1.0
    assert float(rec["mutual_mu"]) == 0.0
    assert _run(argv, tmp_path) == cli.EXIT_OK
    assert (tmp_path / "diagnose_incoherence.csv").read_bytes() == first


def test_certify_writes_step_rows(tmp_path):
    code = _run(["certify", "--L", "256", "--r", "1", "--K", "5", "--N", "5",
                 "--P", "4", "--seed", "11"], tmp_path)
    assert code == cli.EXIT_OK
    rows = _read_csv(tmp_path / "certify_certificate.csv")
    assert len(rows) == 1 + 5  # header + the p=0 state + one row per step
    logged = (tmp_path / "certify_config.txt").read_text()
    assert "steps = 4" in logged


def test_experiment_rows_and_heatmap(tmp_path):
    code = _run(["experiment", "phase-kn", "--trials", "2", "--K", "5,12",
                 "--N", "5", "--seed", "5"], tmp_path)
    assert code == cli.EXIT_OK
    trials = _read_csv(tmp_path / "phase-kn_trials.csv")
    assert trials[0][:4] == ["experiment", "K", "N", "trial"]
    assert len(trials) == 1 + 2 * 2 * 1  # header + two K cells x two trials
    summary = _read_csv(tmp_path / "phase-kn_summary.csv")
    assert len(summary) == 1 + 2
    svg = ET.parse(tmp_path / "phase-kn_heatmap.svg").getroot()
    assert svg.tag.endswith("svg")
    cfg = (tmp_path / "phase-kn_config.txt").read_text()
    assert "# axis_K = 5,12" in cfg


def test_experiment_bad_name_lists_choices(tmp_path, capsys):
    code = _run(["experiment", "bogus"], tmp_path)
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    for name in ("phase-lr", "phase-kn", "mu-h", "noise"):
        assert name in err


def test_experiment_rejects_inapplicable_flag(tmp_path, capsys):
    code = _run(["experiment", "mu-h", "--sigma", "0.1"], tmp_path)
    assert code == cli.EXIT_USAGE
    assert "sigma" in capsys.readouterr().err


def test_outdir_env_var(tmp_path, monkeypatch):
    code = _run(["gen", "--L", "32", "--r", "1", "--K", "4", "--N", "4"],
                tmp_path, extra_env={"DEMIX_OUTDIR": str(tmp_path)},
                monkeypatch=monkeypatch)
    assert code == cli.EXIT_OK
    assert (tmp_path / "gen_ensemble.json").exists()


def test_no_subcommand_exit_one(tmp_path, capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    assert "subcommand" in capsys.readouterr().out


@pytest.mark.parametrize("argv, axis", [
    (["phase-lr", "--L", "50", "--r", "0"], "r"),  # a zero-user cell scored a success
    (["phase-lr", "--L", "0", "--r", "1"], "L"),
    (["phase-kn", "--K", "0", "--N", "5"], "K"),
    (["noise", "--sigma", "inf"], "sigma"),
    (["noise", "--sigma", "nan"], "sigma"),
])
def test_experiment_bad_axis_value_exit_one(tmp_path, capsys, argv, axis):
    # axis values are checked when the grid is built, before any trial runs
    code = _run(["experiment"] + argv + ["--trials", "1"], tmp_path)
    assert code == cli.EXIT_USAGE
    assert "%s %s must be" % (argv[0], axis) in capsys.readouterr().err
    assert not (tmp_path / (argv[0] + "_trials.csv")).exists()
