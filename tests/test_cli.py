"""Command-line driver: exit codes, report schema, artifacts, determinism."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from eikstab import cli, energy
from eikstab.fields import distgrad_field
from eikstab.geometry import CurveSpecError, make_rounded_ngon
from eikstab.geometry.curve import FAMILIES


def run_cli(argv, tmp_path=None):
    return cli.run([str(a) for a in argv])


def load(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# exit codes and error messages


def test_invalid_curve_key_names_offender(tmp_path, capsys):
    rc = run_cli(["gen-domain", "--curve", "rounded_ngon:m=8",
                  "--out", tmp_path / "x.json"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "'m'" in err


def test_missing_required_curve_key_named(tmp_path, capsys):
    rc = run_cli(["gen-domain", "--curve", "rounded_ngon",
                  "--out", tmp_path / "x.json"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "'n'" in err


def test_unknown_curve_kind_names_kind(tmp_path, capsys):
    rc = run_cli(["gen-domain", "--curve", "wobble:n=3",
                  "--out", tmp_path / "x.json"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "kind" in err and "wobble" in err


@pytest.mark.parametrize("curve,field", [("ellipse:aspect=1.3", "distgrad"),
                                         ("circle", "bogus")])
def test_field_without_construction_names_field(tmp_path, curve, field):
    # distgrad exists only on a domain with the n-gon medial star; an
    # unknown family is a usage error, not a crash
    proc = subprocess.run(
        [sys.executable, "-m", "eikstab.cli", "nu", "--curve", curve,
         "--field", field, "--out", str(tmp_path / "x.json")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"'{field}'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv,option", [
    (["defect-integral", "--curve", "circle", "--nodes", "5"], "nodes"),
    (["defect-integral", "--curve", "circle", "--mc", "0", "--seed", "1"],
     "mc"),
    (["defect-integral", "--curve", "circle", "--mc", "-3", "--seed", "1"],
     "mc"),
    (["energy", "--curve", "circle", "--grid", "0"], "grid"),
    (["defect", "--curve", "circle", "--triple", "1,1,2"], "triple"),
    (["lagrangian", "--curve", "circle", "--curves", "100", "--seed", "1",
      "--workers", "0"], "workers"),
    (["lagrangian", "--curve", "circle", "--curves", "100", "--seed", "-1"],
     "seed"),
    (["defect-integral", "--curve", "circle", "--mc", "10", "--seed", "-1"],
     "seed"),
    (["gen-domain", "--curve", "circle", "--samples", "-1"], "samples"),
    (["gen-domain", "--curve", "circle", "--samples", "0"], "samples"),
    (["energy", "--curve", "circle", "--grid", "128", "--eps", "nan"], "eps"),
    (["lagrangian", "--curve", "circle", "--curves", "100", "--seed", "1",
      "--horizon", "nan"], "horizon"),
    (["lagrangian", "--curve", "circle", "--curves", "100", "--seed", "1",
      "--boundary-rate", "nan"], "boundary-rate"),
    (["defect-integral", "--curve", "circle", "--nodes", "8",
      "--region", "star:inf"], "region"),
    (["defect", "--curve", "circle", "--triple", "1,2,nan"], "triple"),
    # reduced mod the perimeter, 1e300 names no point at all
    (["defect", "--curve", "circle", "--triple", "1e300,2,3"], "--triple"),
    # a repeated n would weigh its polygon twice in the fitted slopes
    (["sharpness", "--n", "8,16,8"], "--n repeats 8"),
    # an empty item is refused, not dropped
    (["sharpness", "--n", "8,16,"], "--n must be a comma list of integers"),
    # refused before any polygon is built
    (["sharpness", "--n", "8,65537"], "--n: polygon order must be at most 65536"),
], ids=["nodes", "mc-zero", "mc-negative", "grid", "triple", "workers",
        "seed-lagrangian", "seed-mc", "samples-negative", "samples-zero",
        "eps-nan", "horizon-nan", "boundary-rate-nan", "region-inf",
        "triple-nan", "triple-huge", "n-repeated", "n-empty-item",
        "n-above-bound"])
def test_out_of_range_value_is_usage_error(tmp_path, argv, option):
    # the library entry point rejects the value; the command maps it to
    # exit 2 instead of a traceback or a silently replaced value
    proc = subprocess.run(
        [sys.executable, "-m", "eikstab.cli", *argv,
         "--out", str(tmp_path / "x.json")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert option in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.json").exists()


# Runs the command line in a child that caps its own address space at
# 2 GiB before numpy loads; one BLAS thread keeps numpy's own buffers
# far below the cap on a machine with many cores.
_CAPPED_CLI = ("import resource, runpy; "
               "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
               "runpy.run_module('eikstab.cli', run_name='__main__', "
               "alter_sys=True)")
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


@pytest.mark.parametrize("spec,key", [
    ("ellipse:aspect=nan", "'aspect'"),
    ("ellipse:aspect=inf", "'aspect'"),
    ("kind=ellipse,aspect=1.3,rotation=-inf", "'rotation'"),
    ("rounded_ngon:n=8,rotation=nan", "'rotation'"),
], ids=["aspect-nan", "aspect-inf", "rotation-inf", "rotation-nan"])
def test_non_finite_curve_spec_is_usage_error(tmp_path, spec, key):
    # a NaN aspect used to keep doubling the ellipse's speed series, so the
    # child's time and memory are capped: a regression fails, not hangs
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, "gen-domain", "--curve", spec,
         "--out", str(tmp_path / "x.json")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, **_ONE_THREAD})
    assert proc.returncode == 2
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.json").exists()


def test_non_finite_config_value_is_usage_error(tmp_path, capsys):
    # the config merge converts through the option's own converter
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = nan\n")
    rc = run_cli(["energy", "--curve", "circle", "--grid", "128",
                  "--config", cfg, "--out", tmp_path / "x.json"])
    assert rc == 2
    assert "'eps'" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_selftest_reads_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("wibble=1\n")
    for cfg, named in ((tmp_path / "missing.cfg", "missing.cfg"),
                       (bad, "wibble")):
        rc = run_cli(["selftest", "--quick", "--config", cfg,
                      "--out", tmp_path / "x.json"])
        err = capsys.readouterr().err
        assert rc == 2 and named in err
    assert not (tmp_path / "x.json").exists()


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    rc = run_cli(["nu", "--curve", "circle", "--bogus", "2",
                  "--out", tmp_path / "x.json"])
    capsys.readouterr()
    assert rc == 2


def test_flag_of_another_command_is_usage_error(tmp_path, capsys):
    # defect draws no plot and runs no workers: the flags are rejected,
    # not ignored
    rc = run_cli(["defect", "--curve", "circle", "--triple", "0.3,2.1,4.4",
                  "--plot", tmp_path / "x.svg", "--workers", "9",
                  "--out", tmp_path / "x.json"])
    capsys.readouterr()
    assert rc == 2
    assert not (tmp_path / "x.json").exists()


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


def test_seed_mandatory_for_stochastic_commands(tmp_path, capsys):
    rc = run_cli(["lagrangian", "--curve", "circle", "--curves", "100",
                  "--out", tmp_path / "x.json"])
    err1 = capsys.readouterr().err
    rc2 = run_cli(["defect-integral", "--curve", "circle", "--mc", "500",
                   "--out", tmp_path / "y.json"])
    err2 = capsys.readouterr().err
    assert rc == 2 and "seed" in err1
    assert rc2 == 2 and "seed" in err2


def test_assertion_failure_exits_one_and_lists_records(tmp_path, capsys):
    # 50 curves is far too few for the dissipation identity; seed 0 gives
    # no reflection in the window, so rate 0 misses the 3% floor of the band.
    out = tmp_path / "f.json"
    rc = run_cli(["lagrangian", "--curve", "rounded_ngon:n=8",
                  "--curves", "50", "--horizon", "2.5", "--seed", "0",
                  "--out", out])
    text = capsys.readouterr().out
    assert rc == 1
    assert "failed:" in text and "dissipation_matches_nu" in text
    rep = load(out)
    assert rep["passed"] is False


def test_dissipation_band_scales_with_standard_error(tmp_path, capsys):
    # rate/nu is 1.16 here at a 13.7% standard error: consistent with the
    # identity, and outside any fixed 15% band
    out = tmp_path / "l.json"
    rc = run_cli(["lagrangian", "--curve", "rounded_ngon:n=128",
                  "--curves", "20000", "--seed", "7", "--workers", "1",
                  "--out", out])
    assert rc == 0
    res = load(out)["results"]
    assert res["rate_tolerance"] == {"k_se": 4, "floor": 0.03}
    assert res["rate_over_nu"] > 1.15
    z = (res["rate_over_nu"] - 1.0) / (res["dissipation_se"] / res["nu_ars"])
    assert 1.0 < z < 1.4


def test_short_horizon_is_usage_error(tmp_path, capsys):
    rc = run_cli(["lagrangian", "--curve", "circle", "--curves", "100",
                  "--horizon", "1.5", "--seed", "1", "--out", tmp_path / "x.json"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "horizon" in err


_LAG = ["lagrangian", "--curve", "rounded_ngon:n=8", "--seed", "1"]
_ENERGY = ["energy", "--curve", "rounded_ngon:n=8"]


@pytest.mark.parametrize("argv,message", [
    (_LAG + ["--curves", "0"], "--curves must be >= 1"),
    (_LAG + ["--curves", "-5"], "--curves must be >= 1"),
    (_LAG + ["--curves", "-1", "--boundary-rate", "50"],
     "--curves must be >= 1, or >= 0 with --boundary-rate"),
    (_LAG + ["--curves", "10", "--boundary-rate", "-1"],
     "--boundary-rate must be >= 0"),
    (_ENERGY + ["--eps", "0"], "--eps must be > 0"),
    (_ENERGY + ["--eps", "-1"], "--eps must be > 0"),
    (_ENERGY + ["--grid", "0"], "--grid must be >= 1"),
    (_ENERGY + ["--grid", "-3"], "--grid must be >= 1"),
], ids=["curves-zero", "curves-negative", "curves-negative-rate",
        "boundary-rate-negative", "eps-zero", "eps-negative", "grid-zero",
        "grid-negative"])
def test_value_below_lowest_names_its_flag(tmp_path, capsys, argv, message):
    # the message starts with the flag and gives its lowest value, before
    # a library check can word the value in its own terms
    rc = run_cli(argv + ["--out", tmp_path / "x.json"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {message}")
    assert not (tmp_path / "x.json").exists()


def test_zero_interior_curves_run_with_a_boundary_rate(tmp_path, capsys):
    # --curves 0 is an ensemble of boundary births alone
    out = tmp_path / "x.json"
    rc = run_cli(["lagrangian", "--curve", "rounded_ngon:n=8", "--curves", "0",
                  "--boundary-rate", "20", "--seed", "1", "--out", out])
    assert rc == 0
    rep = load(out)["results"]
    assert rep["n_interior"] == 0 and rep["n_boundary"] > 0


def test_gen_domain_report_and_csv(tmp_path, capsys):
    out = tmp_path / "gd.json"
    table = tmp_path / "gd.csv"
    rc = run_cli(["gen-domain", "--curve", "rounded_ngon:n=8",
                  "--csv", table, "--out", out])
    capsys.readouterr()
    assert rc == 0
    rep = load(out)
    assert rep["schema_version"] == 1
    assert rep["command"] == "gen-domain"
    assert rep["passed"] is True
    assert rep["results"]["perimeter"] == pytest.approx(2.0 * math.pi)
    for a in rep["assertions"]:
        assert set(a) >= {"name", "value", "tolerance", "passed"}
    header, rows = read_csv(table)
    assert header == ["s", "x", "y", "tau_x", "tau_y", "kappa"]
    assert len(rows) == rep["results"]["samples"]
    float(rows[0][1])  # cells parse


def test_timing_key_only_with_flag(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["nu", "--curve", "circle", "--out", a])
    run_cli(["nu", "--curve", "circle", "--timing", "--out", b])
    capsys.readouterr()
    ra, rb = load(a), load(b)
    assert "timing_s" not in ra
    assert rb["timing_s"] > 0.0
    del rb["timing_s"]
    assert ra == rb  # timing is the only difference


def test_config_file_merges_under_flags(tmp_path, capsys):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("curves=4000\nhorizon=2.5\n# comment\n")
    out = tmp_path / "lg.json"
    rc = run_cli(["lagrangian", "--curve", "rounded_ngon:n=8", "--seed", "3",
                  "--horizon", "3.0", "--config", cfgf, "--out", out])
    capsys.readouterr()
    assert rc == 0
    cfg = load(out)["config"]
    assert cfg["curves"] == 4000       # from config file
    assert cfg["horizon"] == 3.0       # flag wins
    assert cfg["seed"] == 3


def test_config_file_seed_is_the_report_seed(tmp_path, capsys):
    # the top-level seed is the one the computation used, from the flag or
    # else from the config file
    cfgf = tmp_path / "mc.cfg"
    cfgf.write_text("seed=5\nmc=200\n")
    for flags, seed in (([], 5), (["--seed", "7"], 7)):
        out = tmp_path / "di.json"
        rc = run_cli(["defect-integral", "--curve", "rounded_ngon:n=8",
                      "--config", cfgf, "--out", out, *flags])
        capsys.readouterr()
        assert rc == 0
        rep = load(out)
        assert rep["seed"] == rep["config"]["seed"] == seed


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfgf = tmp_path / "bad.cfg"
    cfgf.write_text("wibble=1\n")
    rc = run_cli(["nu", "--curve", "circle", "--config", cfgf,
                  "--out", tmp_path / "x.json"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "wibble" in err


def test_outdir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EIKSTAB_OUTDIR", str(tmp_path / "runs"))
    rc = run_cli(["nu", "--curve", "circle"])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "runs" / "nu.json").exists()


# determinism


def test_worker_count_does_not_change_bytes(tmp_path, capsys):
    outs = []
    for w in (1, 2):
        p = tmp_path / f"w{w}.json"
        rc = run_cli(["lagrangian", "--curve", "rounded_ngon:n=8",
                      "--curves", "20000", "--horizon", "2.5", "--seed", "7",
                      "--workers", w, "--out", p])
        assert rc == 0
        outs.append(p.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_repeat_run_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        assert run_cli(["defect-integral", "--curve", "ellipse:aspect=1.3",
                        "--mc", "3000", "--seed", "11", "--out", p]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_changes_results(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["defect-integral", "--curve", "ellipse:aspect=1.3",
             "--mc", "3000", "--seed", "1", "--out", a])
    run_cli(["defect-integral", "--curve", "ellipse:aspect=1.3",
             "--mc", "3000", "--seed", "2", "--out", b])
    capsys.readouterr()
    assert load(a)["results"]["value"] != load(b)["results"]["value"]


# per-command payloads


def test_defect_payload(tmp_path, capsys):
    out = tmp_path / "df.json"
    rc = run_cli(["defect", "--curve", "rounded_ngon:n=6",
                  "--triple", "0.3,2.1,4.4", "--out", out])
    capsys.readouterr()
    assert rc == 0
    res = load(out)["results"]
    assert res["a"] >= 0.0
    assert len(res["z0"]) == 2 and len(res["alphas"]) == 3
    assert all(isinstance(s, bool) for s in res["signs"])


def test_defect_triple_parse_error(tmp_path, capsys):
    rc = run_cli(["defect", "--curve", "circle", "--triple", "0.3,2.1",
                  "--out", tmp_path / "x.json"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "triple" in err


def test_defect_triple_parameter_range(tmp_path, capsys):
    # parameters below 2^13 in magnitude run, a leading minus included
    # (written with '=' so that it does not read as a flag); 2^13 is refused
    for triple, code in (("-1,2,8191.5", 0), ("8192,2,3", 2),
                         ("1,-8192.0,3", 2)):
        rc = run_cli(["defect", "--curve", "circle", f"--triple={triple}",
                      "--out", tmp_path / "x.json"])
        err = capsys.readouterr().err
        assert rc == code
        assert ("--triple" in err) == (code == 2)


def test_defect_integral_star_region(tmp_path, capsys):
    out = tmp_path / "di.json"
    rc = run_cli(["defect-integral", "--curve", "ellipse:aspect=1.3",
                  "--region", "star:0.05", "--nodes", "12", "--out", out])
    capsys.readouterr()
    assert rc == 0
    res = load(out)["results"]
    assert res["mode"] == "tensor"
    assert res["value"] >= 0.0
    assert res["region"] == "star:0.05"
    assert (res["symmetry_order"], res["n_evals"]) == (1, 12**3)


def test_nu_cost_table_csv(tmp_path, capsys):
    out = tmp_path / "nu.json"
    table = tmp_path / "cost.csv"
    rc = run_cli(["nu", "--curve", "rounded_ngon:n=8", "--cost", "cubic",
                  "--csv", table, "--out", out])
    capsys.readouterr()
    assert rc == 0
    res = load(out)["results"]
    assert res["cost_kind"] == "cubic"
    assert res["nu_total"] > 0.0
    assert res["n_segments"] == 8
    header, rows = read_csv(table)
    assert header == ["amplitude", "ars", "cubic"]
    assert len(rows) > 100


def test_lagrangian_payload_and_traj_csv(tmp_path, capsys):
    out = tmp_path / "lg.json"
    traj = tmp_path / "traj.csv"
    rc = run_cli(["lagrangian", "--curve", "circle", "--curves", "300",
                  "--horizon", "2.5", "--seed", "1", "--traj-csv", traj,
                  "--out", out])
    capsys.readouterr()
    assert rc == 0
    res = load(out)["results"]
    assert res["n_curves"] == res["n_interior"] + res["n_boundary"]
    assert res["influx_rate"] == pytest.approx(2.0 * math.pi, rel=1e-6)
    assert sum(res["terminations"].values()) == res["n_curves"]
    header, rows = read_csv(traj)
    assert header == ["curve", "t", "x", "y", "s"]
    ids = {r[0] for r in rows}
    assert len(ids) <= 1000
    assert all("." not in i for i in ids)  # integer labels


def test_energy_payload_and_assertions(tmp_path, capsys):
    out = tmp_path / "en.json"
    rc = run_cli(["energy", "--curve", "circle", "--grid", "256",
                  "--eps", "0.08", "--out", out])
    capsys.readouterr()
    assert rc == 0
    rep = load(out)
    res = rep["results"]
    assert res["total"] == pytest.approx(
        res["dirichlet"] + res["magnetostatic"] + res["penalty"]
        + res["m3_term"], rel=1e-9)
    names = {a["name"] for a in rep["assertions"]}
    assert "dominates_two_term_energy" in names
    assert rep["passed"] is True


def test_energy_total_is_sum_is_checked(tmp_path, capsys, monkeypatch):
    # a total 5e-9 off the sum of its terms passes EnergyBreakdown's own
    # relative check at total ~ 10, but not the report's stated 1e-9
    def off_total(grid, eps):
        return energy.EnergyBreakdown(
            dirichlet=4.0, magnetostatic=3.0, penalty=2.0, m3_term=1.0,
            total=10.0 + 5e-9, epsilon=eps)

    monkeypatch.setattr(energy, "evaluate_F_eps", off_total)
    out = tmp_path / "en.json"
    rc = run_cli(["energy", "--curve", "circle", "--grid", "256",
                  "--eps", "0.08", "--out", out])
    capsys.readouterr()
    assert rc == 1
    rec = {a["name"]: a for a in load(out)["assertions"]}["total_is_sum"]
    assert rec["passed"] is False
    assert rec["value"] == pytest.approx(5e-9, rel=1e-6)


def test_energy_ag_variant(tmp_path, capsys):
    out = tmp_path / "ag.json"
    rc = run_cli(["energy", "--curve", "circle", "--grid", "256",
                  "--eps", "0.08", "--functional", "AG", "--out", out])
    capsys.readouterr()
    assert rc == 0
    rep = load(out)
    assert rep["results"]["magnetostatic"] == 0.0
    assert "dominates_two_term_energy" not in {
        a["name"] for a in rep["assertions"]}


def test_energy_csv_is_every_step_th_cell(tmp_path, capsys):
    # the stored cells (the mask's window and its halo) whose box indices
    # i and j are multiples of n // 256 (2 at n = 602, where the block
    # starts at an odd index), i-major, as a double loop over the mollified
    # grid's box indices writes them
    table = tmp_path / "grid.csv"
    rc = run_cli(["energy", "--curve", "rounded_ngon:n=8", "--grid", "602",
                  "--eps", "0.05", "--csv", table, "--out", tmp_path / "e.json"])
    capsys.readouterr()
    assert rc == 0
    grid = energy.mollify_field(distgrad_field(make_rounded_ngon(8)), 0.05, 602)
    (oi, oj), (ni, nj) = grid.origin, grid.mask.shape
    assert oi % 2 and oj % 2 and ni < 602 and nj < 602
    fx, fy = grid.cell_centers()
    expect = [[repr(float(fx[i - oi])), repr(float(fy[j - oj]))]
              + [repr(float(v)) for v in grid.values[i - oi, j - oj]]
              + ["1" if grid.mask[i - oi, j - oj] else "0"]
              for i in range(oi, oi + ni) if i % 2 == 0
              for j in range(oj, oj + nj) if j % 2 == 0]
    header, rows = read_csv(table)
    assert header == ["x", "y", "m1", "m2", "m3", "mask"]
    assert rows == expect


def test_energy_runs_where_whole_cells_short_the_padding(tmp_path, capsys):
    # at n = 4k + 1 the half-side box pads the mask's whole-cell window by
    # just under 50%; the box gains a cell per side instead of failing
    out = tmp_path / "e.json"
    rc = run_cli(["energy", "--curve", "rounded_ngon:n=8", "--grid", "129",
                  "--eps", "0.2", "--out", out])
    capsys.readouterr()
    assert rc == 0
    res = load(out)["results"]
    assert res["grid_n"] == 131
    assert res["grid_h"] == pytest.approx(energy.raster_field(
        distgrad_field(make_rounded_ngon(8)), 128).h * 128 / 129, rel=1e-15)


def test_energy_unresolved_eps_is_usage_error(tmp_path, capsys):
    rc = run_cli(["energy", "--curve", "circle", "--grid", "256",
                  "--eps", "0.01", "--out", tmp_path / "x.json"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "eps" in err


def test_stability_payload_null_ratios_on_disk(tmp_path, capsys):
    out = tmp_path / "st.json"
    rc = run_cli(["stability", "--curve", "circle", "--out", out])
    capsys.readouterr()
    assert rc == 0
    res = load(out)["results"]
    # disk: every quantity vanishes, ratios are 0/0 -> 0.0 by convention
    assert res["ratios"]["normal_dev_over_nu_ars"] == 0.0
    assert res["lhs_normal_dev"] <= 1e-10


def test_stability_ellipse_infinite_ratio_is_null(tmp_path, capsys):
    out = tmp_path / "st.json"
    rc = run_cli(["stability", "--curve", "ellipse:aspect=1.2", "--out", out])
    capsys.readouterr()
    assert rc == 0
    res = load(out)["results"]
    # vortex comparison field has no jumps: nu = 0, deviation > 0
    assert res["ratios"]["normal_dev_over_nu_ars"] is None


def test_sharpness_plot_implies_csv(tmp_path, capsys):
    out = tmp_path / "sh.json"
    svg = tmp_path / "sh.svg"
    rc = run_cli(["sharpness", "--n", "8,16", "--cost", "ars",
                  "--plot", svg, "--out", out])
    capsys.readouterr()
    assert rc == 0
    assert svg.read_text().startswith("<svg")
    sib = svg.with_suffix(".csv")
    assert sib.exists()
    header, rows = read_csv(sib)
    assert header[0] == "n" and len(rows) == 2
    rep = load(out)
    assert rep["results"]["slope_lhs"] == pytest.approx(-2.0, abs=0.15)


def test_sharpness_rejects_tiny_polygon(tmp_path, capsys):
    rc = run_cli(["sharpness", "--n", "2,8", "--out", tmp_path / "x.json"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "at least 3" in err


def test_selftest_quick_green(tmp_path, capsys):
    out = tmp_path / "st.json"
    rc = run_cli(["selftest", "--quick", "--out", out])
    capsys.readouterr()
    assert rc == 0
    rep = load(out)
    assert len(rep["assertions"]) >= 10
    assert rep["passed"] is True


_LAZY_IMPORT_CHECK = """
import sys
from eikstab import cli
from eikstab.geometry import max_inscribed_disk

out, points = sys.argv[1], sys.argv[2]
heavy = ("scipy.optimize", "scipy.interpolate", "scipy.spatial",
         "scipy.integrate")
for argv in (["defect-integral", "--curve", "rounded_ngon:n=8", "--nodes", "8"],
             ["energy", "--curve", "rounded_ngon:n=8", "--grid", "128",
              "--eps", "0.15"],
             ["sharpness", "--n", "8,16"],
             ["stability", "--curve", "rounded_ngon:n=8"],
             ["stability", "--curve", "ellipse:aspect=1.3"]):
    assert cli.run(argv + ["--out", out]) == 0, argv
ellipse = cli.parse_curve_spec("ellipse:aspect=1.3")
max_inscribed_disk(ellipse)
cli.build_field(ellipse, None)
ellipse.dist_to_boundary([[0.3, 0.1], [2.0, -1.0]])
loaded = [m for m in heavy if m in sys.modules]
assert not loaded, loaded
for argv in (["defect", "--curve", "ellipse:aspect=1.3",
              "--triple", "0.5,2.5,4.5"],
             ["defect", "--curve", "spline:points=" + points,
              "--triple", "0.5,2.5,4.5"]):
    assert cli.run(argv + ["--out", out]) == 0, argv
"""


def test_bulk_commands_import_no_scipy_solvers(tmp_path):
    # the n-gon's integral and energy, sharpness and stability on the
    # n-gon and the ellipse (their centres come from symmetry), and the
    # ellipse's arc-length map, inscribed disk, field and boundary distance,
    # need none of scipy's solvers, interpolators or trees; the commands
    # that do import them on call
    from _domains import blob_points

    points = tmp_path / "blob.csv"
    np.savetxt(points, blob_points(), delimiter=",")
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORT_CHECK, str(tmp_path / "x.json"),
         str(points)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_curve_spec_both_syntaxes_agree(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["gen-domain", "--curve", "ellipse:aspect=1.3", "--out", a])
    run_cli(["gen-domain", "--curve", "kind=ellipse,aspect=1.3", "--out", b])
    capsys.readouterr()
    ra, rb = load(a), load(b)
    assert ra["results"] == rb["results"]


@pytest.mark.parametrize("spec", ["ellipse:aspect=1.3,rotation=0.4",
                                  "rounded_ngon:n=7,rotation=0.25",
                                  "rounded_ngon:n=32", "circle"])
def test_curve_spec_round_trips(spec):
    curve = cli.parse_curve_spec(spec)
    assert curve.spec == spec
    again = cli.parse_curve_spec(curve.spec)
    s = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    assert np.array_equal(again.point(s), curve.point(s))


def _points_file(tmp_path):
    from _domains import blob_points

    path = tmp_path / "blob.csv"
    np.savetxt(path, blob_points(), delimiter=",", header="x,y")
    return path


def test_every_family_parses_both_syntaxes_and_prints_its_spec(tmp_path):
    points = _points_file(tmp_path)
    # family -> (key=value list, canonical spec)
    cases = {"circle": ("", "circle"),
             "ellipse": ("aspect=1.3,rotation=0", "ellipse:aspect=1.3"),
             "rounded_ngon": ("rotation=0.25,n=7",
                              "rounded_ngon:n=7,rotation=0.25"),
             "spline": (f"points={points}", "spline")}
    assert set(cases) == set(FAMILIES)
    s = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for kind, (keys, canonical) in cases.items():
        colon = cli.parse_curve_spec(kind + (":" + keys if keys else ""))
        comma = cli.parse_curve_spec(",".join(
            p for p in (f"kind={kind}", keys) if p))
        assert colon.spec == comma.spec == canonical, kind
        assert np.array_equal(colon.point(s), comma.point(s)), kind


@pytest.mark.parametrize("spec,key", [
    ("kind=rounded_ngon,rotation=0.1", "n"),
    ("rounded_ngon:n=8.5", "n"),
    ("ellipse:aspect=wide", "aspect"),
    ("rounded_ngon:n=2", "n"),
    ("rounded_ngon:n=65537", "n"),
    ("kind=ellipse,aspect=0.9", "aspect"),
    ("spline:points=/nonexistent/points.csv", "points"),
], ids=["missing", "bad-int", "bad-float", "below-n", "above-n",
        "below-aspect", "unreadable"])
def test_curve_spec_error_names_its_key(spec, key):
    with pytest.raises(CurveSpecError) as err:
        cli.parse_curve_spec(spec)
    assert err.value.key == key
    assert repr(key) in str(err.value)


def test_clockwise_spline_points_are_a_spec_error(tmp_path, capsys):
    from _domains import blob_points

    path = tmp_path / "cw.csv"
    np.savetxt(path, blob_points()[::-1], delimiter=",")
    rc = run_cli(["gen-domain", "--curve", f"spline:points={path}",
                  "--out", tmp_path / "x.json"])
    assert rc == 2
    assert "counterclockwise" in capsys.readouterr().err


def test_spline_stability_searches_its_disk_once(tmp_path, capsys,
                                                 monkeypatch):
    # the field's vortex centre, the best-fit circle and the vortex fit
    # all read the disk the curve computed
    from eikstab.geometry.pieces import SplinePiece

    search, calls = SplinePiece.inscribed_disk, []

    def counted(piece):
        calls.append(piece)
        return search(piece)

    monkeypatch.setattr(SplinePiece, "inscribed_disk", counted)
    rc = run_cli(["stability", "--curve",
                  f"spline:points={_points_file(tmp_path)}",
                  "--out", tmp_path / "x.json"])
    capsys.readouterr()
    assert rc == 0
    assert len(calls) == 1


def test_spline_curve_from_points_file(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    ts = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    np.savetxt(pts, np.c_[0.6 * np.cos(ts), 0.4 * np.sin(ts)],
               delimiter=",", header="x,y")
    out = tmp_path / "sp.json"
    rc = run_cli(["gen-domain", "--curve", f"spline:points={pts}",
                  "--out", out])
    capsys.readouterr()
    assert rc == 0
    assert load(out)["results"]["perimeter"] == pytest.approx(
        2.0 * math.pi, abs=1e-6)


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "gd.json"
    proc = subprocess.run(
        [sys.executable, "-m", "eikstab.cli", "gen-domain",
         "--curve", "circle", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-domain: ok" in proc.stdout
    assert load(out)["command"] == "gen-domain"


def test_benchmark_hooks_resolve(monkeypatch):
    # perfbench wraps these names from outside the package and its set-up
    # calls these functions; a refactor that moves one would otherwise
    # fail only inside the benchmark
    import importlib
    from pathlib import Path

    from eikstab import lagrangian
    from eikstab.fields import distgrad_field
    from eikstab.geometry import make_rounded_ngon, max_inscribed_disk
    from eikstab.geometry.curve import BoundaryCurve

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    from tracer import FUNCTIONS, METHODS, Tracer
    from workloads import WORKLOADS

    for modname, attr, _ in FUNCTIONS.values():
        assert callable(getattr(importlib.import_module(modname), attr)), attr
    for _, attr, _ in METHODS:
        assert callable(BoundaryCurve.__dict__.get(attr)), attr
    for workload in WORKLOADS.values():
        for cmd in workload.commands("smoke", 0):
            if cmd.setup_curve is not None:
                curve = cli.parse_curve_spec(cmd.setup_curve)
                max_inscribed_disk(curve)
                cli.build_field(curve, None)

    ens = lagrangian.sample_ensemble(lagrangian.balanced_spec(
        distgrad_field(make_rounded_ngon(8)), 300, seed=2))
    tracer = Tracer()
    tracer._on_ensemble(ens)
    counts = tracer.counts[tracer.run_id]
    assert counts["curves"] == ens.n_curves
    assert counts["reflections"] == len(ens.events["t"]) > 0
    assert counts["crossings"] == len(ens.events["cross_t"]) > 0
    assert (counts["term_horizon"] + counts["term_boundary"]
            + counts["term_center"]) == ens.n_curves
