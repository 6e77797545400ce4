"""Command-line interface: document shape, determinism, exit codes."""

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

import urnengine
from rings import two_level
from urnengine import analytic, cli, continuum, thermo
from urnengine import frontier as fr
import numpy as np

OTTO = ["analytic", "otto", "--eps-l", "1", "--eps-h", "2",
        "--N", "10000", "--n-l", "2000", "--n-h", "3000"]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


def test_json_document_shape(capsys):
    code, out, err = run_cli(OTTO, capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"inputs", "outputs", "version"}
    assert doc["version"] == urnengine.__version__
    assert out.endswith("\n")
    # sorted keys keep documents diffable
    assert list(doc) == sorted(doc)


def test_otto_known_values(capsys):
    doc = run_json(OTTO, capsys)
    out = doc["outputs"]
    assert out["W"] == pytest.approx(0.1, abs=1e-12)
    assert out["eta"] == pytest.approx(0.5, abs=1e-12)
    assert out["var_W"] == pytest.approx(0.37, abs=1e-12)
    assert out["beta_l"] == pytest.approx(1.3863, abs=5e-4)
    assert out["beta_h"] == pytest.approx(0.4236, abs=5e-4)
    assert out["eta_carnot"] == pytest.approx(0.696, abs=2e-3)


def test_otto_inputs_reproduce_outputs(capsys):
    doc = run_json(OTTO, capsys)
    inp = doc["inputs"]
    spec = two_level([inp["eps_l"], inp["eps_h"]], [inp["n_l"], inp["n_h"]], inp["N"])
    assert analytic.mean_heats_ring(spec)[2] == pytest.approx(doc["outputs"]["W"], abs=1e-12)
    beta = thermo.beta_from_occupancy(inp["n_l"], inp["N"], inp["eps_l"])
    assert beta == pytest.approx(doc["outputs"]["beta_l"], abs=1e-12)


def test_otto_in_either_altitude_order_is_the_m1_ring(capsys):
    # eps_l above eps_h is the m=1 ring too: the heats and W of analytic ring
    # at f = n/N, bit for bit
    otto = run_json(["analytic", "otto", "--eps-l", "2", "--eps-h", "1",
                     "--N", "10", "--n-l", "2", "--n-h", "3"], capsys)["outputs"]
    ring = run_json(["analytic", "ring", "--eps", "2,1", "--f", "0.2,0.3"], capsys)["outputs"]
    assert (otto["Q_l"], otto["Q_h"], otto["W"], otto["var_W"]) == (
        ring["Q_low"], ring["Q_high"], ring["W"], ring["var_W"])
    assert otto["W"] == otto["Q_h"] == -0.09999999999999998 and otto["eta"] == -1.0


def test_degenerate_counts_leave_beta_null(capsys):
    doc = run_json(["analytic", "otto", "--eps-l", "1", "--eps-h", "2",
                    "--N", "100", "--n-l", "0", "--n-h", "30"], capsys)
    assert doc["outputs"]["beta_l"] is None
    assert doc["outputs"]["eta_carnot"] is None


@pytest.mark.parametrize("n_h", ["0", "10"])
def test_degenerate_hot_count_leaves_eta_carnot_null(n_h, capsys):
    doc = run_json(["analytic", "otto", "--eps-l", "1", "--eps-h", "2",
                    "--N", "10", "--n-l", "2", "--n-h", n_h], capsys)
    assert doc["outputs"]["beta_l"] is not None
    assert doc["outputs"]["beta_h"] is None
    assert doc["outputs"]["eta_carnot"] is None


@pytest.mark.parametrize("N, n_l, n_h", [("10000", "3000", "2000"), ("10", "3", "3")],
                         ids=["pump", "no-heat"])
def test_otto_eta_is_null_unless_the_hot_side_discharges(N, n_l, n_h, capsys):
    doc = run_json(["analytic", "otto", "--eps-l", "1", "--eps-h", "2",
                    "--N", N, "--n-l", n_l, "--n-h", n_h], capsys)
    assert doc["outputs"]["Q_h"] >= 0.0
    assert doc["outputs"]["eta"] is None


def test_repeated_invocations_byte_identical(capsys):
    _, first, _ = run_cli(OTTO, capsys)
    _, second, _ = run_cli(OTTO, capsys)
    assert first == second


def test_csv_header_and_order(capsys):
    code, out, _ = run_cli(["analytic", "ring", "--eps", "1,2",
                            "--f", "0.2,0.3", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["eps", "f", "Q_low", "Q_high", "W", "mean_W", "var_W", "ratio"]
    assert len(rows) == 2
    # list-valued cells join with semicolons
    assert rows[1][0] == "1.0;2.0"
    assert float(rows[1][6]) == pytest.approx(0.37, abs=1e-12)


def test_analytic_ring_zero_mean_has_no_ratio(capsys):
    # the mean work is 5e-17 of rounding residue, not a scale for var_W
    out = run_json(["analytic", "ring", "--eps", "0.1,0.2,0.7,0.3", "--f", "0.9,0.9,0.9,0.9"], capsys)["outputs"]
    assert out["W"] == 0.0 and out["mean_W"] != 0.0
    assert out["ratio"] is None


# One invocation per subcommand with its CSV header: a scalar document's
# columns are its inputs in flag order, then its outputs.
CSV_HEADERS = {
    "analytic otto": (OTTO, "eps_l,eps_h,N,n_l,n_h,W,eta,Q_l,Q_h,var_W,beta_l,beta_h,eta_carnot"),
    "analytic ring": (["analytic", "ring", "--eps", "1,2", "--f", "0.2,0.3"],
                      "eps,f,Q_low,Q_high,W,mean_W,var_W,ratio"),
    "thermo beta": (["thermo", "beta", "--n", "2", "--N", "10", "--eps", "1"], "n,N,eps,beta,temperature"),
    "thermo occupancy": (["thermo", "occupancy", "--x", "0.5"], "x,f"),
    "thermo entropy": (["thermo", "entropy", "--x", "0", "--levels", "3"], "x,y,levels,s"),
    "thermo degeneracy": (["thermo", "degeneracy", "--N", "10", "--n", "3"], "N,n,log_degeneracy"),
    "simulate": (["simulate", "--eps", "1,2", "--n", "2,3", "--N", "10", "--trials", "100", "--seed", "1"],
                 "eps,n,N,trials,seed,workers,mean_W,var_W,stderr_W,mean_Q,conservation_violations,"
                 "analytic_mean,analytic_variance,z_mean,z_var,tv_distance,exact_match,passed"),
    "continuum heats": (["continuum", "heats", "--beta-l", "1.38", "--beta-h", "0.42",
                         "--l1", "1.38", "--lm", "1.518", "--h1", "1.512", "--hm", "1.386"],
                        "beta_l,beta_h,L1,Lm,H1,Hm,Q_l,Q_h,W,eta"),
    "continuum reversible": (["continuum", "reversible", "--beta-l", "1.38", "--beta-h", "0.42",
                              "--l1", "1.38", "--lm", "1.518"],
                             "beta_l,beta_h,L1,Lm,W,eta,identity_residual"),
    "continuum wmax": (["continuum", "wmax", "--beta-l", "1.38", "--beta-h", "0.42"], "beta_l,beta_h,W_max"),
    "frontier": (["frontier", "--m", "1", "--beta-l", "1.38", "--beta-h", "0.42", "--target-w", "0.1"],
                 "m,beta_l,beta_h,mode,target_W,W,eta,residual,evaluations,start_index,config"),
    "region": (["region", "--m", "1", "--beta-l", "1.38", "--beta-h", "0.42",
                "--samples", "5", "--eps-max", "5"], "W,eta,engine,config"),
}


@pytest.mark.parametrize("argv, header", CSV_HEADERS.values(), ids=CSV_HEADERS.keys())
def test_csv_header_of_every_subcommand(argv, header, capsys):
    code, out, err = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0, err
    assert out.split("\r\n")[0] == header


def test_csv_renders_none_as_empty(capsys):
    code, out, _ = run_cli(["analytic", "otto", "--eps-l", "1", "--eps-h", "2",
                            "--N", "100", "--n-l", "0", "--n-h", "30",
                            "--format", "csv"], capsys)
    assert code == 0
    header, row = list(csv.reader(io.StringIO(out)))
    cells = dict(zip(header, row))
    assert cells["beta_l"] == ""
    assert cells["eta_carnot"] == ""


def test_infinite_temperature_is_an_empty_csv_cell(capsys):
    # T = 1/beta is inf at half filling: undefined, so null in JSON and empty in CSV
    argv = ["thermo", "beta", "--n", "5", "--N", "10", "--eps", "1"]
    assert run_json(argv, capsys)["outputs"] == {"beta": 0.0, "temperature": None}
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["n,N,eps,beta,temperature", "5,10,1.0,0.0,"]


def test_domain_error_exits_one_with_json(capsys):
    code, out, err = run_cli(["thermo", "beta", "--n", "0", "--N", "100",
                              "--eps", "1"], capsys)
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analytic", "otto", "--no-such-flag", "1"])
    assert exc.value.code == 2


def test_entropy_flag_conflict_is_domain_error(capsys):
    code, _, err = run_cli(["thermo", "entropy", "--x", "0.5", "--y", "1.0",
                            "--levels", "3"], capsys)
    assert code == 1
    assert "mutually exclusive" in json.loads(err)["error"]


def test_thermo_subcommands(capsys):
    doc = run_json(["thermo", "beta", "--n", "2000", "--N", "10000", "--eps", "1"], capsys)
    assert doc["outputs"]["beta"] == pytest.approx(1.3863, abs=5e-4)
    assert doc["outputs"]["temperature"] == pytest.approx(1 / 1.3863, abs=1e-3)
    doc = run_json(["thermo", "occupancy", "--x", "0"], capsys)
    assert doc["outputs"]["f"] == 0.5
    doc = run_json(["thermo", "entropy", "--x", "0"], capsys)
    assert doc["outputs"]["s"] == pytest.approx(0.6931471805599453, abs=1e-15)
    doc = run_json(["thermo", "entropy", "--x", "0", "--levels", "3"], capsys)
    assert doc["outputs"]["s"] == pytest.approx(1.0986122886681098, abs=1e-12)
    doc = run_json(["thermo", "entropy", "--x", "0.5", "--levels", "1000000000000"], capsys)
    assert doc["outputs"]["s"] == pytest.approx(-math.log1p(-math.exp(-0.5)) + 0.5 / math.expm1(0.5))
    doc = run_json(["thermo", "degeneracy", "--N", "3", "--n", "1"], capsys)
    assert doc["outputs"]["log_degeneracy"] == pytest.approx(1.0986122886681098, abs=1e-15)


def test_simulate_smoke(capsys):
    argv = ["simulate", "--eps", "1,2", "--n", "20,30", "--N", "100", "--trials", "20000", "--seed", "7", "--workers", "2"]
    doc = run_json(argv, capsys)
    assert doc["seed"] == 7
    out = doc["outputs"]
    assert out["trials"] == 20000
    assert out["conservation_violations"] == 0
    assert out["passed"] is True
    assert abs(out["z_mean"]) < 4.0
    # histogram keys are work values, weights count trials
    assert sum(out["histogram"].values()) == 20000
    assert out["mean_W"] == pytest.approx(out["analytic_mean"], abs=0.05)


def test_simulate_seed_determinism(capsys):
    argv = ["simulate", "--eps", "1,2", "--n", "20,30", "--N", "100", "--trials", "5000", "--seed", "3"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv + ["--workers", "4"], capsys)
    a, b = json.loads(first), json.loads(second)
    assert a["outputs"]["mean_W"] == b["outputs"]["mean_W"]
    assert a["outputs"]["histogram"] == b["outputs"]["histogram"]


def test_simulate_csv_drops_histogram(capsys):
    argv = ["simulate", "--eps", "1,2", "--n", "20,30", "--N", "100", "--trials", "1000", "--seed", "1", "--format", "csv"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    header, row = list(csv.reader(io.StringIO(out)))
    assert "histogram" not in header
    cells = dict(zip(header, row))
    # exact_match only applies to degenerate work distributions; empty here
    assert cells["exact_match"] == ""
    assert cells["passed"] == "true"


def test_simulate_ring_mode(capsys):
    argv = ["simulate", "--eps", "0.7,1.3,3.1,2.9", "--n", "3,4,2,3",
            "--N", "9", "--trials", "2000", "--seed", "5"]
    doc = run_json(argv, capsys)
    assert doc["inputs"]["eps"] == [0.7, 1.3, 3.1, 2.9]
    assert doc["outputs"]["conservation_violations"] == 0


def test_simulate_equal_weight_draws_pass_the_audit(capsys):
    # all draws of a trial share one weight, so every heat is 0 and W is
    # rounding residue; that residue is not a conservation violation
    argv = ["simulate", "--eps", "0.1,0.2,0.7,0.3", "--n", "9,9,9,9",
            "--N", "10", "--trials", "100000", "--seed", "1"]
    doc = run_json(argv, capsys)
    assert doc["outputs"]["conservation_violations"] == 0


def test_simulate_rejects_negative_seed(capsys):
    code, out, err = run_cli(["simulate", "--eps", "1,2", "--n", "2,3", "--N", "10",
                              "--trials", "10", "--seed", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert "seed must be in" in json.loads(err)["error"]


def test_simulate_largest_int64_population(capsys):
    argv = ["simulate", "--eps", "1,2", "--n", f"{2**61},{2**62}", "--N", str(2**63 - 1), "--trials", "1000", "--seed", "0"]
    assert run_json(argv, capsys)["outputs"]["trials"] == 1000


@pytest.mark.parametrize("total", [2**61 + 1, 6148914691236517206])
def test_simulate_populations_that_reject_many_words(total, capsys):
    # these N reject about 1/8 and 1/3 of 64-bit words under a plain modulo;
    # every seed runs, and the draws match the enumeration
    argv = ["simulate", "--eps", "1,2", "--n", f"{total // 4},{total // 2}", "--N", str(total),
            "--trials", "1048576", "--seed", "1"]
    out = run_json(argv, capsys)["outputs"]
    assert out["trials"] == 1048576
    assert out["tv_distance"] < 0.01
    assert out["passed"] is True


@pytest.mark.parametrize("total", [2**63, 2**64 + 5])
def test_simulate_rejects_population_beyond_int64(total, capsys):
    code, out, err = run_cli(["simulate", "--eps", "1,2", "--n", "2,3",
                              "--N", str(total), "--trials", "10", "--seed", "0"], capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "invalid population"


def test_simulate_requires_a_complete_ring(capsys):
    # a missing required flag is a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--eps", "1,2", "--N", "100", "--trials", "10", "--seed", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the following arguments are required: --n" in captured.err


def test_continuum_subcommands(capsys):
    doc = run_json(["continuum", "reversible", "--beta-l", "1.38", "--beta-h", "0.42",
                    "--l1", "1.38", "--lm", "1.518"], capsys)
    assert doc["outputs"]["W"] == pytest.approx(0.049, abs=2e-3)
    assert doc["outputs"]["eta"] == pytest.approx(1 - 0.42 / 1.38, abs=1e-9)
    assert abs(doc["outputs"]["identity_residual"]) < 1e-10
    doc = run_json(["continuum", "wmax", "--beta-l", "1.38", "--beta-h", "0.42"], capsys)
    assert doc["outputs"]["W_max"] == pytest.approx(1.1480698642814828, abs=1e-9)
    doc = run_json(["continuum", "heats", "--beta-l", "0.2", "--beta-h", "-0.1",
                    "--l1", "0.06", "--lm", "0.06",
                    "--h1", "-1.4000000000000001", "--hm", "-0.03"], capsys)
    assert doc["outputs"]["W"] == pytest.approx(2.48, abs=0.03)
    assert doc["outputs"]["eta"] == pytest.approx(0.997, abs=1e-3)


@pytest.mark.parametrize("argv, message", [
    (["continuum", "reversible", "--beta-l", "1", "--beta-h", "-0.5", "--l1", "1", "--lm", "2"],
     "reversible cycle needs sign(beta_l) = sign(beta_h)"),
    (["continuum", "wmax", "--beta-l", "1", "--beta-h", "-0.5"],
     "reversible cycle needs sign(beta_l) = sign(beta_h)"),
    (["region", "--m", "1", "--beta-l", "nan", "--beta-h", "0.42",
      "--samples", "10", "--eps-max", "5", "--seed", "1"], "beta must be finite"),
    (["thermo", "beta", "--n", "1", "--N", "10", "--eps", "1e-320"], "degenerate occupancy (infinite |beta|)"),
])
def test_beta_domain_errors_exit_one(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == message


def test_continuum_heats_reduced_and_raw_agree(capsys):
    # the CLI takes reduced endpoints only; the library still builds them from altitudes
    raw = continuum.continuum_heats(continuum.CarnotEndpoints.from_altitudes(1.38, 0.42, 1, 1.1, 3.6, 3.3))
    reduced = run_json(["continuum", "heats", "--beta-l", "1.38", "--beta-h", "0.42",
                        "--l1", "1.38", "--lm", "1.518",
                        "--h1", "1.512", "--hm", "1.386"], capsys)
    assert raw.work == pytest.approx(reduced["outputs"]["W"], abs=1e-12)


def test_frontier_single_target(capsys):
    argv = ["frontier", "--m", "1", "--beta-l", "1.38", "--beta-h", "0.42",
            "--target-w", "0.1", "--tol-w", "1e-3", "--budget", "60000",
            "--starts", "6", "--seed", "0", "--format", "csv"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "beta_l", "beta_h", "mode", "target_W", "W", "eta",
                       "residual", "evaluations", "start_index", "config"]
    assert len(rows) == 2
    cells = dict(zip(rows[0], rows[1]))
    assert float(cells["W"]) == pytest.approx(0.1, abs=1e-3)
    assert 0.0 < float(cells["eta"]) < 1.0
    assert len(cells["config"].split(";")) == 2


def test_frontier_rejects_ambiguous_targets(capsys):
    code, _, err = run_cli(["frontier", "--m", "1", "--beta-l", "1.38",
                            "--beta-h", "0.42"], capsys)
    assert code == 1
    assert "exactly one of" in json.loads(err)["error"]


@pytest.mark.parametrize("m, flags, message", [
    ("1", ["--beta-l", "0"], "beta must be finite and nonzero"),
    ("carnot", ["--beta-l", "0"], "beta must be finite and nonzero"),
    ("1", ["--beta-l", "nan"], "beta must be finite and nonzero"),
    ("carnot", ["--beta-l", "1.38", "--init-extent", "-1"], "init_extent must be finite and positive"),
    ("2", ["--beta-l", "1.38", "--target-w", "nan"], "target_work must be finite"),
    ("carnot", ["--beta-l", "1.38", "--target-w", "inf"], "target_work must be finite"),
    ("2", ["--beta-l", "1.38", "--tol-w", "inf"], "tol_w must be finite and positive"),
    ("2", ["--beta-l", "1.38", "--target-w", "-0.05"],
     "no maximum efficiency for heat-pump targets (W < 0) at m >= 2 with positive betas: "
     "eta = W/(-Q_h) is unbounded; use mode min"),
    ("1", ["--beta-l", "1.38", "--target-w", "-0.05"],
     "no maximum efficiency for heat-pump targets (W < 0) at m = 1 with positive betas: "
     "eta = W/(-Q_h) = 1 - eps_l/eps_h tends to 1 but never attains it; use mode min"),
])
def test_frontier_domain_errors_exit_one_with_json(m, flags, message, capsys):
    argv = ["frontier", "--m", m, "--beta-h", "0.42", "--target-w", "0.1",
            "--budget", "1000", "--starts", "2", *flags]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == message


def test_frontier_echoes_the_optimizer_defaults(capsys, monkeypatch):
    # unset --tol-w/--budget/--starts are filled in from frontier's constants
    monkeypatch.setattr(fr, "frontier_curve", lambda *args: [])
    doc = run_json(["frontier", "--m", "2", "--beta-l", "1.38", "--beta-h", "0.42",
                    "--target-w", "0.1"], capsys)
    assert (doc["inputs"]["tol_w"], doc["inputs"]["budget"], doc["inputs"]["starts"]) == (
        fr.DEFAULT_TOL_W, fr.DEFAULT_BUDGET, fr.DEFAULT_STARTS)


_REDUCED = ["--beta-l", "1.38", "--beta-h", "0.42", "--l1", "1.38", "--lm", "1.518"]


@pytest.mark.parametrize("argv, message", [
    (["thermo", "occupancy", "--x", "nan"], "occupancy argument must not be NaN"),
    # the endpoint check names the flag before any occupancy sees the NaN
    (["continuum", "reversible", "--beta-l", "1", "--beta-h", "0.5", "--l1", "nan", "--lm", "2"],
     "invalid reduced endpoint cold_first: altitude must be positive"),
    (["thermo", "entropy", "--x", "0.5", "--levels", "1" + "0" * 400], "levels too large for a float"),
    (["analytic", "ring", "--eps", "1,1e308", "--f", "0.5,0.5"], "work statistics too large for a float"),
    # an excited fraction is a probability
    (["analytic", "ring", "--eps", "1,2", "--f", "0.2,1.3"], "invalid population"),
    # a closed form that overflows a float: 1/beta_l at beta_l = 1e-320 ...
    (["continuum", "wmax", "--beta-l", "1e-320", "--beta-h", "1"], "reversible work too large for a float"),
    (["continuum", "reversible", "--beta-l", "1e-320", "--beta-h", "1", "--l1", "1e-321", "--lm", "2e-320"],
     "reversible work or efficiency too large for a float"),
    # ... eta = 1 - beta_h/beta_l alone ...
    (["continuum", "reversible", "--beta-l", "1e-300", "--beta-h", "1e10", "--l1", "1e-301", "--lm", "2e-300"],
     "reversible work or efficiency too large for a float"),
    # ... W = -(Q_low + Q_high), each near 1.7e308 ...
    (["analytic", "ring", "--eps", "1,1.7e308,1,1.7e308", "--f", "1,0,1,0"], "mean heats too large for a float"),
    # ... or the variance, checked before any draw (the draws would warn of overflow)
    (["simulate", "--eps", "1,1e308", "--n", "2,3", "--N", "10", "--trials", "10", "--seed", "0"],
     "work statistics too large for a float"),
    (["thermo", "degeneracy", "--N", "1" + "0" * 400, "--n", "5"], "occupation too large for a float"),
    # f = (0.2, 0.3) varies, but d_k^2 f_k (1 - f_k) underflows at 1e-320
    (["simulate", "--eps", "1e-320,2e-320", "--n", "2,3", "--N", "10", "--trials", "1000", "--seed", "1"],
     "work variance too small for a float"),
    # every ring takes one altitude rule, positive and finite, in any order
    (["analytic", "otto", "--eps-l", "nan", "--eps-h", "2", "--N", "10", "--n-l", "2", "--n-h", "3"],
     "invalid altitude"),
    (["analytic", "otto", "--eps-l", "0", "--eps-h", "2", "--N", "10", "--n-l", "2", "--n-h", "3"],
     "invalid altitude"),
])
@pytest.mark.filterwarnings("error")
def test_nan_inputs_exit_one(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == message


def test_simulate_overflow_writes_one_json_line():
    # the closed forms fail before the ensemble runs, so no numpy warning
    # from the draws reaches stderr ahead of the error line
    proc = subprocess.run(
        [sys.executable, "-m", "urnengine.cli", "simulate", "--eps", "1,1e308", "--n", "2,3",
         "--N", "10", "--trials", "10", "--seed", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == json.dumps({"error": "work statistics too large for a float"}) + "\n"


# Each input has one spelling: the Otto-form simulate flags, the raw
# altitudes of continuum heats|reversible, analytic ring's mean weights and
# the analytic variance subcommand are gone, so argparse rejects them.
_REMOVED_FLAGS = {
    "analytic ring": (["analytic", "ring", "--eps", "1,2", "--f", "0.2,0.3"], ["--f-mean"]),
    "simulate": (["simulate", "--eps", "1,2", "--n", "2,3", "--N", "10", "--trials", "10", "--seed", "0"],
                 ["--eps-l", "--eps-h", "--n-l", "--n-h"]),
    "continuum heats": (["continuum", "heats", *_REDUCED, "--h1", "1.512", "--hm", "1.386"],
                        ["--eps-l1", "--eps-lm", "--eps-h1", "--eps-hm"]),
    "continuum reversible": (["continuum", "reversible", *_REDUCED], ["--eps-l1", "--eps-lm"]),
}


_REMOVED = [pytest.param([*argv, flag, "1"], f"unrecognized arguments: {flag} 1", id=f"{name} {flag}")
            for name, (argv, flags) in _REMOVED_FLAGS.items() for flag in flags]
_REMOVED.append(pytest.param(["analytic", "variance", "--eps", "1,2", "--f", "0.2,0.3"],
                             "invalid choice: 'variance'", id="analytic variance"))


@pytest.mark.parametrize("argv, message", _REMOVED)
def test_removed_input_flags_exit_two(argv, message, tmp_path, capsys):
    path = tmp_path / "doc"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--output", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not path.exists()


def _parser_commands(parser):
    """Each command of a parser: a group as (name, its subcommands), else its name."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = []
    for name, child in sub.choices.items():
        nested = [a for a in child._actions if isinstance(a, argparse._SubParsersAction)]
        commands.append((name, list(nested[0].choices)) if nested else name)
    return commands


def test_readme_names_every_subcommand():
    # README's "Subcommands:" sentence, e.g. `analytic {otto, ring}`, `simulate`
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")) as fh:
        text = fh.read()
    sentence = " ".join(text.split("Subcommands: ", 1)[1].split(". ", 1)[0].split())
    named = []
    for item in re.findall(r"`([^`]+)`", sentence):
        group, _, rest = item.partition(" {")
        named.append((group, [c.strip() for c in rest.rstrip("}").split(",")]) if rest else group)
    assert named == _parser_commands(cli.build_parser())


def test_frontier_overflowing_default_extent_names_the_flag(capsys):
    # 16 / min(|beta_l|, |beta_h|) overflows to inf for a subnormal beta
    argv = ["frontier", "--m", "1", "--beta-l", "1e-310", "--beta-h", "0.42", "--target-w", "0.1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    message = json.loads(err)["error"]
    assert message.startswith("init_extent must be finite and positive")
    assert "--init-extent" in message


def test_frontier_carnot_alias(capsys):
    argv = ["frontier", "--m", "carnot", "--beta-l", "1.38", "--beta-h", "0.42",
            "--target-w", "0.05", "--tol-w", "1e-3", "--budget", "60000",
            "--starts", "6", "--seed", "0"]
    doc = run_json(argv, capsys)
    assert doc["inputs"]["m"] == "carnot"
    pt = doc["outputs"]["points"][0]
    assert pt["eta"] == pytest.approx(1 - 0.42 / 1.38, abs=1e-6)
    assert len(pt["config"]) == 4


def test_region_rows(capsys):
    argv = ["region", "--m", "1", "--beta-l", "1.38", "--beta-h", "0.42",
            "--samples", "50", "--eps-max", "5", "--seed", "2", "--format", "csv"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["W", "eta", "engine", "config"]
    assert len(rows) == 51
    assert {r[2] for r in rows[1:]} <= {"true", "false"}


def _region_sample(m):
    sample = fr.sample_region(m, 1.38, 0.42, 40, 5.0, seed=2)
    assert not sample.engine.all()  # some rows carry an undefined eta
    return sample


def test_region_json_matches_library(capsys):
    for m in (1, 2):
        doc = run_json(["region", "--m", str(m), "--beta-l", "1.38", "--beta-h", "0.42",
                        "--samples", "40", "--eps-max", "5", "--seed", "2"], capsys)
        sample = _region_sample(m)
        expected = [
            {"W": w, "eta": None if math.isnan(e) else e, "engine": g, "config": c}
            for w, e, g, c in zip(sample.work.tolist(), sample.efficiency.tolist(),
                                  sample.engine.tolist(), sample.eps.tolist())
        ]
        assert doc["outputs"]["points"] == expected


def test_region_csv_matches_library(capsys):
    for m in (1, 2):
        code, out, _ = run_cli(["region", "--m", str(m), "--beta-l", "1.38", "--beta-h", "0.42",
                                "--samples", "40", "--eps-max", "5", "--seed", "2",
                                "--format", "csv"], capsys)
        assert code == 0
        sample = _region_sample(m)
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [float(r[0]) for r in rows] == sample.work.tolist()
        assert [None if r[1] == "" else float(r[1]) for r in rows] == [
            None if math.isnan(e) else e for e in sample.efficiency.tolist()]
        assert [r[2] == "true" for r in rows] == sample.engine.tolist()
        assert [[float(v) for v in r[3].split(";")] for r in rows] == sample.eps.tolist()


# Reference encoding: every row a dict, JSON through _jsonable and
# json.dumps(sort_keys=True, indent=2), CSV cell by cell through csv.writer.
# The CLI's column writer must match it byte for byte.

def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    if isinstance(value, float) and not math.isfinite(value):
        return ""
    return str(value)


def _reference_document(fmt, inputs, outputs, seed, columns, rows):
    if fmt == "json":
        doc = {"inputs": _jsonable(inputs), "outputs": _jsonable(outputs),
               "version": urnengine.__version__}
        if seed is not None:
            doc["seed"] = seed
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in columns])
    return buf.getvalue()


def _written(argv, tmp_path):
    path = tmp_path / "doc"
    assert cli.main(argv + ["--output", str(path)]) == 0
    return path.read_bytes().decode()


def _inputs(argv):
    args = cli.build_parser().parse_args(argv)
    return args.handler(args).inputs


_EDGE = [-0.0, 5e-324, 1e-310, 1e+16, 0.1, -2.5, 7.0, 3e-5]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_region_writer_matches_dict_rows(fmt, tmp_path, monkeypatch):
    work = np.array([-0.0, 5e-324, 1e-310, 1e+16, math.nan, math.inf, -math.inf, 0.25])
    eta = np.array([0.5, -0.0, math.nan, 1e+16, 5e-324, math.inf, 1e-310, math.nan])
    engine = np.array([True, False, True, True, False, True, False, False])
    eps = np.array([np.roll(_EDGE, k)[:6] for k in range(8)])  # m = 3
    sample = fr.RegionSample(work=work, efficiency=eta, engine=engine, eps=eps)
    monkeypatch.setattr(fr, "_region_blocks", lambda *args: iter([(work, eta, engine, eps)]))
    argv = ["region", "--m", "3", "--beta-l", "1.38", "--beta-h", "0.42", "--samples", "8",
            "--eps-max", "1e308", "--seed", "5", "--format", fmt]
    rows = [
        {"W": float(w), "eta": None if not math.isfinite(e) else float(e),
         "engine": bool(g), "config": [float(v) for v in eps_row]}
        for w, e, g, eps_row in zip(sample.work, sample.efficiency, sample.engine, sample.eps)
    ]
    expected = _reference_document(fmt, _inputs(argv), {"points": rows}, 5,
                                   ["W", "eta", "engine", "config"], rows)
    assert _written(argv, tmp_path) == expected


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("samples", [1, 3, 8, 9])
def test_region_document_is_the_same_across_block_boundaries(samples, fmt, tmp_path, monkeypatch):
    # three-row blocks: one partial block, one full, several with a partial tail
    sample = fr.sample_region(2, 1.38, 0.42, samples, 5.0, seed=2)
    monkeypatch.setattr(fr, "_BLOCK_ROWS", 3)
    argv = ["region", "--m", "2", "--beta-l", "1.38", "--beta-h", "0.42", "--samples", str(samples),
            "--eps-max", "5", "--seed", "2", "--format", fmt]
    rows = [
        {"W": w, "eta": None if math.isnan(e) else e, "engine": g, "config": c}
        for w, e, g, c in zip(sample.work.tolist(), sample.efficiency.tolist(),
                              sample.engine.tolist(), sample.eps.tolist())
    ]
    expected = _reference_document(fmt, _inputs(argv), {"points": rows}, 2,
                                   ["W", "eta", "engine", "config"], rows)
    assert _written(argv, tmp_path) == expected


def _region_peak(samples, tmp_path):
    argv = ["region", "--m", "1", "--beta-l", "1.38", "--beta-h", "0.42", "--samples", str(samples),
            "--eps-max", "10", "--seed", "1", "--output", str(tmp_path / "doc.json")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_region_memory_does_not_grow_with_samples(tmp_path):
    # the table streams in row blocks (CSV takes the same path): holding every
    # row as Python objects would add tens of MB between these two runs
    small, large = _region_peak(10_000, tmp_path), _region_peak(100_000, tmp_path)
    assert large - small < 2 * 2**20, (small, large)


@pytest.mark.parametrize("eps_max", ["1e-320", "1e-310", "2.2250738585072014e-308"])
@pytest.mark.parametrize("samples", ["1", "2", "30000"])
def test_region_eps_max_rule_holds_at_every_sample_count(eps_max, samples, tmp_path, capsys):
    # a draw eps_max*(1-u) reaches 2**-53 eps_max, which underflows to 0 at and
    # below eps_max = 2**-1022: an error whatever the number of draws
    path = tmp_path / "doc"
    code, out, err = run_cli(["region", "--m", "1", "--beta-l", "1.38", "--beta-h", "0.42",
                              "--samples", samples, "--eps-max", eps_max, "--output", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "eps_max must be finite and above 2**-1022" in json.loads(err)["error"]
    assert not path.exists()  # the error comes before the document is opened


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("m", ["carnot", "2"])
def test_frontier_writer_matches_dict_rows(m, fmt, tmp_path, monkeypatch):
    points = [
        fr.FrontierPoint(target_work=0.1, eta=0.6, mode=fr.Mode.MAX, config=tuple(_EDGE[:4]),
                         residual=1e+16, evaluations=7, work=-0.0, start_index=0),
        fr.FrontierPoint(target_work=-0.0, eta=math.nan, mode=fr.Mode.MAX,
                         config=(5e-324, math.inf, 0.2, 1e-310), residual=math.nan,
                         evaluations=123_456, work=math.inf, start_index=15),
    ]
    monkeypatch.setattr(fr, "frontier_curve", lambda *args: points)
    argv = ["frontier", "--m", m, "--beta-l", "1.38", "--beta-h", "0.42",
            "--w-grid=-0.0:0.1:2", "--format", fmt]
    inputs = _inputs(argv)
    rows = [
        {"m": inputs["m"], "beta_l": 1.38, "beta_h": 0.42, "mode": "max",
         "target_W": p.target_work, "W": p.work, "eta": p.eta, "residual": p.residual,
         "evaluations": p.evaluations, "start_index": p.start_index, "config": list(p.config)}
        for p in points
    ]
    columns = ["m", "beta_l", "beta_h", "mode", "target_W", "W", "eta",
               "residual", "evaluations", "start_index", "config"]
    expected = _reference_document(fmt, inputs, {"points": rows}, 0, columns, rows)
    assert _written(argv, tmp_path) == expected


@pytest.mark.parametrize("argv", [
    ["analytic", "otto", "--eps-l", "1", "--eps-h", "2", "--N", "100", "--n-l", "0", "--n-h", "30"],
    ["analytic", "ring", "--eps", "1,1.5,2.5,2", "--f", "0.2,0.25,0.3,0.35"],
    ["simulate", "--eps", "1,2", "--n", "20,30", "--N", "100", "--trials", "1000", "--seed", "1"],
    ["continuum", "heats", "--beta-l", "1.38", "--beta-h", "0.42",
     "--l1", "3", "--lm", "0.5", "--h1", "0.2", "--hm", "1.5"],  # the hot side absorbs: eta is null
    # d**4 and variance**2 of z_var would overflow without rescaling
    ["simulate", "--eps", "1,1e100", "--n", "2,3", "--N", "10", "--trials", "1000", "--seed", "1"],
])
def test_scalar_csv_matches_dict_row(argv, tmp_path):
    args = cli.build_parser().parse_args(argv)
    result = args.handler(args)
    inputs, outputs = result.inputs, result.outputs
    # one row merging inputs and scalar outputs, the echoed input winning a clash
    columns = list(inputs) + [k for k in outputs if not isinstance(outputs[k], dict) and k not in inputs]
    row = {**{k: v for k, v in outputs.items() if not isinstance(v, dict)}, **inputs}
    expected = _reference_document("csv", inputs, outputs, None, columns, [row])
    assert _written(argv + ["--format", "csv"], tmp_path) == expected


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code, out, _ = run_cli(OTTO + ["--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    _, stdout_text, _ = run_cli(OTTO, capsys)
    assert target.read_text() == stdout_text


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "urnengine.cli", "thermo", "occupancy", "--x", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outputs"]["f"] == 0.5
