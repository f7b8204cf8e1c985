import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hklab import cli, densities, expsums
from hklab.circle import (
    DissectionParams,
    classify_direct,
    dilation_containment_check,
    moment_majorant_experiment,
)
from hklab.cli import EXIT_BUDGET, EXIT_INTERNAL, EXIT_OK, EXIT_VALIDATION, ResultCache, main
from hklab.core import SystemParams
from hklab.densities import singular_series_euler


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_prints_value(capsys):
    code, out, _ = run_cli(capsys, "count", "--s", "3", "--k", "2", "--n", "3,3",
                           "--method", "both")
    assert code == EXIT_OK and out.strip().splitlines()[0] == "1"


def test_count_negative_xmin_methods_agree(capsys):
    code, out, _ = run_cli(capsys, "count", "--s", "3", "--k", "2", "--n", "1,5",
                           "--box", "3", "--xmin", "-2", "--method", "both")
    assert code == EXIT_OK and out.strip().splitlines()[0] == "6"


def test_count_budget_exit(capsys):
    code, _, err = run_cli(capsys, "count", "--s", "6", "--k", "2",
                           "--n", "60,1000", "--method", "naive",
                           "--budget", "10")
    assert code == EXIT_BUDGET and "budget" in err


def test_densities_euler_refusal_prints_partial_work(capsys, monkeypatch):
    # the Euler loop counts m = 2 and 4, then refuses m = 8
    monkeypatch.setattr(densities, "RESIDUE_CELLS_MAX", 100)
    code, _, err = run_cli(capsys, "densities", "--s", "6", "--k", "2", "--n", "139,4643",
                           "--method", "euler")
    assert code == EXIT_BUDGET
    assert "modulus 8," in err and "(partial work: 2)" in err


def test_densities_integral_over_cap_exits_3_before_series_work(capsys, monkeypatch):
    # the k = 4 box grid needs about 7.2e7 cells against a cap of 3.4e7; the
    # refusal comes before the q-sum terms and the Euler counts
    def refuse(*args, **kwargs):
        raise AssertionError("series work ran before the integral was priced")

    for name in ("series_term", "solution_count_mod"):
        monkeypatch.setattr(densities, name, refuse)
    code, _, err = run_cli(capsys, "densities", "--s", "20", "--k", "4",
                           "--n", "40,200,1000,5000", "--integral")
    assert code == EXIT_BUDGET and "tensor grid" in err


def test_densities_qsum_over_budget_exits_3_before_any_term(capsys, monkeypatch):
    # q = 243 is over the table budget at k = 3, priced before the first term
    def refuse(*args, **kwargs):
        raise AssertionError("a series table was built before the q-sum was priced")

    monkeypatch.setattr(densities, "_shift_tables", refuse)
    code, _, err = run_cli(capsys, "densities", "--s", "12", "--k", "3",
                           "--n", "59,369,2609", "--method", "qsum", "--qmax", "250")
    assert code == EXIT_BUDGET and "q=243" in err and "(partial work: 0)" in err


def test_count_bad_variant(capsys):
    code, _, err = run_cli(capsys, "count", "--s", "2", "--k", "2", "--n", "3,3",
                           "--variant", "nonsense")
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("command", [["count"], ["densities", "--method", "euler"]])
@pytest.mark.parametrize("s, variant", [("3", "coeffs:1,1"), ("8", "mixed:2,2")])
def test_variant_size_must_match_s(capsys, command, s, variant):
    # the variant's coefficients fix the number of variables; a different --s
    # is refused, not overridden (the pure count at s = 3 is 1, at s = 2 it is 0)
    code, out, err = run_cli(capsys, *command, "--s", s, "--k", "2", "--n", "3,3",
                             "--variant", variant)
    assert code == EXIT_VALIDATION and out == ""
    assert "--variant" in err and f"--s is {s}" in err


def test_count_mixed_variant_of_matching_size(capsys):
    code, out, _ = run_cli(capsys, "count", "--s", "4", "--k", "2", "--n", "1,3",
                           "--variant", "mixed:2,2", "--box", "6", "--xmin", "0")
    assert code == EXIT_OK and out.strip() == "26"


@pytest.mark.parametrize("argv, flag", [
    (["count", "--s", "3", "--k", "2", "--n", "3,x"], "--n"),
    (["vinogradov", "--t", "1", "--k", "2", "--X", "8.5"], "--X"),
    (["sums", "weyl", "--alpha", "0,abc"], "--alpha"),
    (["arcs", "--k", "2", "--X", "100", "--alpha", "0,abc"], "--alpha"),
    (["sums", "complete", "--q", "3", "--a", "0,x"], "--a"),
    (["sums", "integral", "--beta", "0,x"], "--beta"),
    (["count", "--s", "4", "--k", "2", "--n", "1,3", "--variant", "mixed:2,x"], "--variant"),
    (["count", "--s", "abc", "--k", "2", "--n", "3,3"], "--s"),
    # sizes below 1
    (["local", "--s", "0", "--k", "2", "--n", "1,2"], "--s"),
    (["arcs", "--k", "0", "--X", "100"], "--k"),
    (["sums", "weyl", "--k", "0", "--alpha", ","], "--k"),
    (["verify", "identities", "--k", "0"], "--k"),
])
def test_malformed_value_is_usage_error(capsys, argv, flag):
    # argparse's refusals come back through main() as exit 2, not as SystemExit
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_VALIDATION and f"argument {flag}:" in err and out == ""


@pytest.mark.parametrize("argv, flag", [
    (["count", "--s", "3", "--k", "2", "--n", "3,3", "--meth", "both"], "--meth"),
    (["arcs", "--k", "2", "--X", "100", "--l-exp", "0.3"], "--l-exp"),
])
def test_flags_are_not_abbreviated(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_VALIDATION and f"unrecognized arguments: {flag}" in err and out == ""


def test_usage_error_prints_one_line_from_the_process(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-m", "hklab.cli", "count", "--s", "abc",
                          "--k", "2", "--n", "3,3"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == EXIT_VALIDATION and res.stdout == ""
    assert res.stderr.splitlines() == [
        "validation error: argument --s: invalid positive_int value: 'abc'"]


def test_vinogradov_single_X_prints_the_count(tmp_path, capsys):
    out_path = tmp_path / "j.json"
    code, out, _ = run_cli(capsys, "vinogradov", "--t", "1", "--k", "2", "--X", "8",
                           "--out", str(out_path))
    assert code == EXIT_OK and out.splitlines()[0] == "8"  # x = y, one solution per x <= 8
    assert json.loads(out_path.read_text())["J"] == 8


def test_vinogradov_table(capsys):
    code, out, _ = run_cli(capsys, "vinogradov", "--t", "1", "--k", "2",
                           "--X", "8,16,32")
    assert code == EXIT_OK and "slope=1.0" in out


def test_sums_complete(capsys):
    code, out, _ = run_cli(capsys, "sums", "complete", "--q", "3", "--a", "0,1")
    assert code == EXIT_OK and "|S|=1.73205" in out


def test_sums_weyl_and_integral(capsys):
    code, out, _ = run_cli(capsys, "sums", "weyl", "--k", "2",
                           "--alpha", "0,0.25", "--X", "4")
    assert code == EXIT_OK and out.startswith("3 +2")
    code, out, _ = run_cli(capsys, "sums", "integral", "--beta", "0,1",
                           "--X", "1")
    assert code == EXIT_OK and "0.24412" in out


def test_sums_weyl_alpha_writes_its_row_to_out(tmp_path, capsys):
    out_path = tmp_path / "one.csv"
    code, out, _ = run_cli(capsys, "sums", "weyl", "--k", "2", "--alpha", "0,0.25",
                           "--X", "4", "--out", str(out_path))
    assert code == EXIT_OK and out.splitlines() == ["3 +2i", f"wrote {out_path}"]
    header, row = out_path.read_text().strip().splitlines()
    assert header == "alpha_1,alpha_2,re,im"
    assert np.allclose([float(v) for v in row.split(",")], [0.0, 0.25, 3.0, 2.0],
                       rtol=0, atol=1e-12)


def test_sums_integral_unreachable_tol_exits_3(capsys):
    code, _, err = run_cli(capsys, "sums", "integral", "--beta", "40,170",
                           "--X", "9", "--tol", "1e-30")
    assert code == EXIT_BUDGET and "tolerance unreachable" in err


def test_sums_integral_oversized_rule_exits_3(capsys, monkeypatch):
    # 3.2e9 nodes: refused before the first panel is built (a built panel
    # would fail the test instead of allocating)
    def refuse(*args):
        raise AssertionError("panels built before the budget check")
    monkeypatch.setattr(expsums, "gl_panels", refuse)
    code, _, err = run_cli(capsys, "sums", "integral", "--beta", "0,10000",
                           "--X", "100")
    assert code == EXIT_BUDGET and "nodes" in err


def test_sums_grid_csv(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "sums", "weyl", "--k", "2", "--X", "5",
                         "--grid", "4", "--out", str(out_path))
    assert code == EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "alpha_1,alpha_2,re,im"
    assert len(lines) == 1 + 16
    first = lines[1].split(",")
    assert float(first[2]) == 6.0                          # f(0) = X+1


def test_sums_csv_input_batch(tmp_path, capsys):
    in_path = tmp_path / "alphas.csv"
    np.savetxt(in_path, np.array([[0.0, 0.25], [0.5, 0.0]]), delimiter=",")
    out_path = tmp_path / "vals.csv"
    code, _, _ = run_cli(capsys, "sums", "weyl", "--k", "2", "--X", "4",
                         "--csv", str(in_path), "--out", str(out_path))
    assert code == EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    re0, im0 = float(lines[1].split(",")[2]), float(lines[1].split(",")[3])
    assert abs(complex(re0, im0) - (3 + 2j)) < 1e-9


@pytest.mark.parametrize("kind, flags", [
    ("complete", ["--q", "5", "--a", "1,1"]),
    ("integral", ["--beta", "0,1"]),
])
def test_sums_batch_needs_kind_weyl(tmp_path, capsys, kind, flags):
    # --grid and --csv evaluate Weyl sums, so another kind is refused, not ignored
    out_path = tmp_path / "grid.csv"
    code, out, err = run_cli(capsys, "sums", kind, *flags, "--grid", "2",
                             "--out", str(out_path))
    assert code == EXIT_VALIDATION and "unrecognized arguments: --grid" in err and out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("argv, flag", [
    (["weyl", "--k", "2", "--X", "4"], "--alpha"),
    (["complete", "--a", "1,1"], "--q"),
    (["complete", "--q", "5"], "--a"),
    (["integral", "--X", "1"], "--beta"),
    ([], "kind"),
])
def test_sums_missing_value_exits_2(capsys, argv, flag):
    code, out, err = run_cli(capsys, "sums", *argv)
    assert code == EXIT_VALIDATION and "required" in err and flag in err and out == ""


def test_sums_grid_below_one_exits_2(tmp_path, capsys):
    # --grid 0 is refused, not taken for "no grid"
    out_path = tmp_path / "grid.csv"
    code, _, err = run_cli(capsys, "sums", "weyl", "--grid", "0", "--k", "2", "--X", "4",
                           "--out", str(out_path))
    assert code == EXIT_VALIDATION and "--grid" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, flag", [
    (["complete", "--q", "5", "--a", "1,1", "--alpha", "0.3"], "--alpha"),
    (["complete", "--q", "5", "--a", "1,1", "--beta", "2"], "--beta"),
    (["complete", "--q", "5", "--a", "1,1", "--tol", "1e-6"], "--tol"),
    (["weyl", "--alpha", "0,0.25", "--q", "5"], "--q"),
    (["weyl", "--alpha", "0,0.25", "--a", "1,1"], "--a"),
    (["weyl", "--alpha", "0,0.25", "--beta", "2"], "--beta"),
    (["weyl", "--alpha", "0,0.25", "--tol", "1e-6"], "--tol"),
    (["integral", "--beta", "0,1", "--alpha", "0.3"], "--alpha"),
    (["integral", "--beta", "0,1", "--q", "5"], "--q"),
    (["integral", "--beta", "0,1", "--a", "1,1"], "--a"),
    (["weyl", "--grid", "3", "--alpha", "0.1,0.2"], "--alpha"),
    # the --alpha point must have --k coordinates, and complete and integral
    # read neither --k, --X nor --out
    (["weyl", "--k", "3", "--alpha", "0.1,0.2"], "--alpha"),
    (["complete", "--q", "5", "--a", "1,1", "--k", "3"], "--k"),
    (["complete", "--q", "5", "--a", "1,1", "--X", "8"], "--X"),
    (["complete", "--q", "5", "--a", "1,1"], "--out"),
    (["integral", "--beta", "0,1"], "--out"),
])
def test_sums_refuses_values_its_kind_does_not_read(tmp_path, capsys, argv, flag):
    out_path = tmp_path / "grid.csv"
    code, out, err = run_cli(capsys, "sums", *argv, "--out", str(out_path))
    assert code == EXIT_VALIDATION and flag in err and out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("flags, flag", [(["--alpha", "0.1,0.2"], "--alpha"),
                                         (["--grid", "2"], "--grid")])
def test_sums_csv_refuses_a_second_source_of_points(tmp_path, capsys, flags, flag):
    in_path = tmp_path / "alphas.csv"
    np.savetxt(in_path, np.array([[0.0, 0.25]]), delimiter=",")
    out_path = tmp_path / "vals.csv"
    code, _, err = run_cli(capsys, "sums", "weyl", "--csv", str(in_path), *flags,
                           "--out", str(out_path))
    assert code == EXIT_VALIDATION and flag in err
    assert not out_path.exists()


def test_sums_csv_narrower_than_k_exits_2(tmp_path, capsys):
    in_path = tmp_path / "alphas.csv"
    in_path.write_text("0.25\n0.5\n")
    out_path = tmp_path / "vals.csv"
    code, _, err = run_cli(capsys, "sums", "weyl", "--k", "2", "--X", "4",
                           "--csv", str(in_path), "--out", str(out_path))
    assert code == EXIT_VALIDATION and "1 columns but --k is 2" in err
    assert not out_path.exists()


def test_sums_csv_wider_than_k_reads_first_k_columns(tmp_path, capsys):
    in_path = tmp_path / "alphas.csv"
    in_path.write_text("0.0,0.25,0.7\n")
    out_path = tmp_path / "vals.csv"
    code, _, _ = run_cli(capsys, "sums", "weyl", "--k", "2", "--X", "4",
                         "--csv", str(in_path), "--out", str(out_path))
    assert code == EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "alpha_1,alpha_2,re,im" and lines[1].startswith("0.0,0.25,3.0")


def test_sums_csv_non_finite_row_is_validation_error(tmp_path, capsys):
    in_path = tmp_path / "alphas.csv"
    in_path.write_text("0.5,0.25\nnan,0.1\n")
    code, _, err = run_cli(capsys, "sums", "weyl", "--k", "2", "--csv", str(in_path),
                           "--out", str(tmp_path / "vals.csv"))
    assert code == EXIT_VALIDATION and "non-finite" in err


def test_arcs_membership_mode(capsys):
    code, out, _ = run_cli(capsys, "arcs", "--k", "2", "--X", "100",
                           "--Q", "5", "--alpha", "0.5,0.5")
    assert code == EXIT_OK and "major (q=2, a=1)" in out
    code, out, _ = run_cli(capsys, "arcs", "--k", "2", "--X", "100",
                           "--Q", "5", "--alpha", "0.5,0.6180339887")
    assert code == EXIT_OK and "minor" in out


def test_arcs_membership_mode_writes_out(tmp_path, capsys):
    out_path = tmp_path / "a.csv"
    code, _, _ = run_cli(capsys, "arcs", "--k", "2", "--X", "100", "--Q", "5",
                         "--alpha", "0.5,0.5", "--out", str(out_path))
    assert code == EXIT_OK
    assert out_path.read_text().splitlines() == ["alpha_2,q,a", "0.5,2,1"]
    code, _, _ = run_cli(capsys, "arcs", "--k", "2", "--X", "100", "--Q", "5",
                         "--alpha", "0.5,0.6180339887", "--out", str(out_path))
    assert code == EXIT_OK
    assert out_path.read_text().splitlines() == ["alpha_2,q,a", "0.6180339887,,"]


@pytest.mark.parametrize("flags, flag", [
    (["--k", "3", "--alpha", "0.5,0.5"], "--alpha"),       # 2 coordinates at k = 3
    (["--k", "2", "--csv", "CSV", "--alpha", "0.5,0.5"], "--alpha"),
    (["--k", "2", "--csv", "CSV", "--points", "5"], "--points"),
])
def test_arcs_refuses_a_point_it_would_not_classify(tmp_path, capsys, flags, flag):
    in_path = tmp_path / "alphas.csv"
    np.savetxt(in_path, np.array([[0.0, 0.5, 0.25]]), delimiter=",")
    out_path = tmp_path / "classes.csv"
    flags = [str(in_path) if f == "CSV" else f for f in flags]
    code, out, err = run_cli(capsys, "arcs", "--X", "100", *flags, "--out", str(out_path))
    assert code == EXIT_VALIDATION and flag in err and out == ""
    assert not out_path.exists()


def test_arcs_membership_mode_rejects_l_exponent(capsys):
    # --Q replaces the dissection that --l-exponent would set
    code, _, err = run_cli(capsys, "arcs", "--k", "2", "--X", "100", "--Q", "5",
                           "--l-exponent", "0.3", "--alpha", "0.5,0.5")
    assert code == EXIT_VALIDATION and "--l-exponent" in err


@pytest.mark.parametrize("mode", [[], ["--Q", "5"]])
def test_arcs_non_finite_point_is_validation_error(capsys, mode):
    code, out, err = run_cli(capsys, "arcs", "--k", "2", "--X", "100", *mode,
                             "--alpha", "0.5,nan")
    assert code == EXIT_VALIDATION and "non-finite" in err and "W1" not in out


def test_local_json(tmp_path, capsys):
    out_path = tmp_path / "local.json"
    code, out, _ = run_cli(capsys, "local", "--s", "6", "--k", "2",
                           "--n", "1,2", "--out", str(out_path))
    assert code == EXIT_OK and "insoluble" in out
    data = json.loads(out_path.read_text())
    assert data["verdict"] == "insoluble"


def test_local_warns_below_two_to_the_k(capsys):
    code, out, _ = run_cli(capsys, "local", "--s", "2", "--k", "2", "--n", "2,2")
    assert code == EXIT_OK
    assert ("warning: s = 2 < 2^k - 1 = 3: p-adic solubility is not assured in general "
            "with this few variables") in out.splitlines()


def test_densities_json_meta(tmp_path, capsys):
    out_path = tmp_path / "dens.json"
    code, _, _ = run_cli(capsys, "densities", "--s", "6", "--k", "2",
                         "--n", "96,1934", "--method", "euler",
                         "--pmax", "13", "--out", str(out_path))
    assert code == EXIT_OK
    data = json.loads(out_path.read_text())
    assert set(data["meta"]) == {"code_version", "config_hash", "seed",
                                 "wall_time_s"}
    assert data["series_euler"]["value"] > 0


def test_densities_csv_terms(tmp_path, capsys):
    csv_path = tmp_path / "terms.csv"
    code, _, _ = run_cli(capsys, "densities", "--s", "6", "--k", "2",
                         "--n", "3,3", "--method", "qsum", "--qmax", "6",
                         "--csv", str(csv_path))
    assert code == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "q,A_q"
    assert len(lines) == 7


def test_densities_qmax_zero_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "densities", "--s", "6", "--k", "2",
                           "--n", "96,1934", "--method", "qsum", "--qmax", "0")
    assert code == EXIT_VALIDATION and "Q_max" in err


@pytest.fixture
def no_density_work(monkeypatch):
    """Make every series and quadrature route fail if the command reaches it."""
    def refuse(*args, **kwargs):
        raise AssertionError("density work ran before validation")
    for name in ("singular_series_qsum", "singular_series_euler",
                 "singular_integral_quadrature", "mc_volume_oracle"):
        monkeypatch.setattr(cli, name, refuse)


def test_densities_mc_zero_samples_is_validation_error(capsys, no_density_work):
    code, _, err = run_cli(capsys, "densities", "--s", "6", "--k", "2", "--n", "96,1934",
                           "--integral", "--mc", "--samples", "0")
    assert code == EXIT_VALIDATION and "samples" in err


def test_densities_mc_negative_samples_is_validation_error(capsys, no_density_work):
    code, _, err = run_cli(capsys, "densities", "--s", "6", "--k", "2", "--n", "96,1934",
                           "--integral", "--mc", "--samples", "-5")
    assert code == EXIT_VALIDATION and "samples" in err


@pytest.mark.parametrize("flags, needed", [
    (["--mc"], "--integral"),
    (["--method", "euler", "--csv", "terms.csv"], "--method qsum or both"),
    (["--method", "euler", "--qmax", "3"], "--qmax needs --method qsum or both"),
    (["--method", "qsum", "--pmax", "13"], "--pmax needs --method euler or both"),
    (["--samples", "5"], "--samples needs --mc"),
    (["--integral", "--samples", "2000000"], "--samples needs --mc"),
])
def test_densities_ignored_flag_is_validation_error(capsys, no_density_work, flags, needed):
    code, _, err = run_cli(capsys, "densities", "--s", "6", "--k", "2", "--n", "96,1934",
                           *flags)
    assert code == EXIT_VALIDATION and needed in err


def test_densities_integral_mc_reports_the_oracle(tmp_path, capsys):
    out_path = tmp_path / "d.json"
    code, _, _ = run_cli(capsys, "densities", "--s", "6", "--k", "2", "--n", "96,1934",
                         "--method", "euler", "--integral", "--mc", "--samples", "20000",
                         "--out", str(out_path))
    assert code == EXIT_OK
    data = json.loads(out_path.read_text())
    assert data["integral"]["method"].startswith("BoxQuadrature")
    assert data["integral_mc"]["method"].startswith("MonteCarloVolume")
    assert "samples=20000" in data["integral_mc"]["method"]


def test_densities_non_pure_integral_is_validation_error(capsys, no_density_work):
    code, _, err = run_cli(capsys, "densities", "--s", "6", "--k", "2", "--n", "10,300",
                           "--variant", "mixed:3,3", "--method", "euler", "--integral")
    assert code == EXIT_VALIDATION and "pure system" in err


def test_densities_help_names_flag_dependencies(capsys):
    with pytest.raises(SystemExit):
        main(["densities", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "(needs --integral)" in out and "(needs --method qsum or both)" in out
    assert "else 30; needs --method qsum or both)" in out
    assert "(default 13; needs --method euler or both)" in out
    assert "(default 2000000; needs --mc)" in out


def test_cli_import_leaves_thread_pool_unloaded():
    # mc_volume_oracle imports its thread pool lazily, so `hk` start-up does not pay for it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, hklab.cli; print('concurrent.futures' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_densities_qsum_default_gives_main_term(tmp_path, capsys):
    # the k = 2 default Q_max = 100 meets the default tail tolerance 0.02
    out_path = tmp_path / "dens.json"
    code, _, _ = run_cli(capsys, "densities", "--s", "6", "--k", "2",
                         "--n", "96,1934", "--method", "qsum", "--integral",
                         "--out", str(out_path))
    assert code == EXIT_OK
    data = json.loads(out_path.read_text())
    assert data["series_qsum"]["converged"] is True
    assert data["series_qsum"]["method"] == "TruncatedSum{Q_max=100}"
    assert "main_term_error" not in data and data["main_term"]["value"] > 0
    grid = data["integral"]["detail"]["grid"]
    assert grid["gamma_nodes"] == 8 * 48 * 2
    assert len(grid["coarse_beta_nodes"]) == len(grid["fine_beta_nodes"]) == 2


def test_densities_non_converged_series_reports_main_term_error(tmp_path, capsys):
    # a q-sum that reports no convergence has no main term; the run still exits 0
    out_path = tmp_path / "dens.json"
    code, _, _ = run_cli(capsys, "densities", "--s", "6", "--k", "2", "--n", "96,1934",
                         "--method", "qsum", "--qmax", "12", "--tol", "0", "--integral",
                         "--out", str(out_path))
    assert code == EXIT_OK
    data = json.loads(out_path.read_text())
    assert data["series_qsum"]["converged"] is False and "main_term" not in data
    assert data["main_term_error"] == "singular series estimate not converged"


def test_densities_main_term_fault_is_internal_error(tmp_path, capsys, monkeypatch):
    # only a non-converged estimate is reported in the output; any other fault exits 4
    def fail(*args):
        raise ZeroDivisionError("division by zero")
    monkeypatch.setattr(cli, "main_term", fail)
    out_path = tmp_path / "dens.json"
    code, _, err = run_cli(capsys, "densities", "--s", "6", "--k", "2", "--n", "96,1934",
                           "--method", "qsum", "--integral", "--out", str(out_path))
    assert code == EXIT_INTERNAL and "ZeroDivisionError" in err
    assert not out_path.exists()


def test_densities_tol_reaches_both_routes(tmp_path, capsys):
    out_path = tmp_path / "dens.json"
    code, _, _ = run_cli(capsys, "densities", "--s", "6", "--k", "2",
                         "--n", "96,1934", "--qmax", "12", "--pmax", "13",
                         "--tol", "0", "--out", str(out_path))
    assert code == EXIT_OK
    data = json.loads(out_path.read_text())
    assert data["series_qsum"]["converged"] is False
    direct = singular_series_euler([96, 1934], SystemParams.pure(6, 2),
                                   p_max=13, tol=0.0)
    assert {int(p): v["depth"] for p, v in
            data["series_euler"]["detail"]["per_prime"].items()} == \
        {p: v["depth"] for p, v in direct.detail["per_prime"].items()}


def test_arcs_classify_csv(tmp_path, capsys):
    in_path = tmp_path / "alphas.csv"
    rows = np.array([[0.0, 0.0, 0.0], [0.31, 0.7, 0.6180339887], [0.3, 0.3, 0.0]])
    np.savetxt(in_path, rows, delimiter=",")
    out_path = tmp_path / "classes.csv"
    code, out, _ = run_cli(capsys, "arcs", "--k", "3", "--X", "10000",
                           "--csv", str(in_path), "--out", str(out_path))
    assert code == EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    assert lines[1].split(",")[3] == "W4"
    assert lines[2].split(",")[3] == "W1"
    assert lines[3] == '0.3,0.3,0.0,W2,1,"(0,)"'          # 1-d witness label


def test_arcs_csv_narrower_than_k_exits_2(tmp_path, capsys):
    in_path = tmp_path / "alphas.csv"
    in_path.write_text("0.0\n0.5\n")
    out_path = tmp_path / "classes.csv"
    code, out, err = run_cli(capsys, "arcs", "--k", "2", "--X", "100",
                             "--csv", str(in_path), "--out", str(out_path))
    assert code == EXIT_VALIDATION and "1 columns but --k is 2" in err
    assert "classes" not in out and not out_path.exists()


def test_arcs_wide_profile_pinned(tmp_path, capsys):
    out_path = tmp_path / "arcs.csv"
    code, out, _ = run_cli(capsys, "arcs", "--k", "2", "--X", "300",
                           "--l-exponent", "0.3333333", "--points", "4000",
                           "--seed", "3", "--out", str(out_path))
    assert code == EXIT_OK
    assert "classes: {'W1': 3877, 'W3': 122, 'W4': 1}" in out
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    pts = np.array([[float(r[0]), float(r[1])] for r in rows])
    d = DissectionParams.from_scale(300.0, 2, l_exponent=0.3333333)
    assert [r[2] for r in rows] == classify_direct(pts, d).tolist()
    lines = out_path.read_text().splitlines()
    assert '0.11219699434112951,0.416699703145176,W3,5,"(1, 2)"' in lines


@pytest.mark.parametrize("seed", [{}, {"seed": 3}])
def test_moment_majorant_runner_is_the_direct_call(tmp_path, capsys, monkeypatch, seed):
    # the runner passes the config's keys and nothing else, so its result is
    # the direct call's, with the functions' own default for a left-out seed
    monkeypatch.setenv("HK_CACHE_DIR", str(tmp_path / "cache"))
    config = {"s": 6, "k": 2, "X": 64.0, "Q_list": [8, 16], "h": [60, 1500],
              "samples": 800, **seed}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "moment-majorant", **config}))
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(out),
                         "--no-cache")
    assert code == EXIT_OK
    direct = {**moment_majorant_experiment(**config),
              "containment": dilation_containment_check(6, 16, 64.0, 2, **seed)}
    assert json.loads(out.read_text())["result"] == json.loads(json.dumps(direct))


def test_experiment_cache_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HK_CACHE_DIR", str(tmp_path / "cache"))
    for config, summary in [
        ({"name": "minor-decay", "s": 12, "k": 3, "X": 2000.0,
          "Q_list": [5, 10, 20], "samples": 60, "seed": 11}, "summary: sup slope"),
        # a complex narrow_box_integral, written by _jsonable and read back by the hit
        ({"name": "w4-main", "s": 6, "k": 2, "base_tuple": [0.35, 0.52, 0.21],
          "scale_list": [4]}, "summary: count/main-term ratios"),
    ]:
        root = tmp_path / config["name"]
        root.mkdir()
        cfg = root / "cfg.json"
        cfg.write_text(json.dumps(config))
        out1 = root / "r1.json"
        out2 = root / "r2.json"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                             "--out", str(out1))
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                               "--out", str(out2))
        assert code == EXIT_OK and "cache hit" in out and summary in out
        assert out1.read_bytes() == out2.read_bytes()
        # the hit writes the rows' CSV too, the same as the run's
        assert (root / "r2.csv").read_bytes() == (root / "r1.csv").read_bytes()
        data = json.loads(out1.read_text())
        assert data["meta"]["code_version"]
        assert data["meta"]["seed"] == config.get("seed")
        assert data["meta"]["config_hash"]
        assert "wall_time_s" in data["meta"]
    assert set(data["result"]["rows"][0]["narrow_box_integral"]) == {"re", "im"}


@pytest.mark.parametrize("argv, flag", [
    (["arcs", "--k", "2", "--X", "100", "--csv", "missing.csv"], "--csv"),
    (["sums", "weyl", "--k", "2", "--X", "4", "--csv", "bad.csv"], "--csv"),
    (["experiment", "--config", "missing.json"], "--config"),
    (["experiment", "--config", "truncated.json"], "--config"),
])
def test_bad_input_file_is_validation_error(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("0.1,abc\n")
    (tmp_path / "truncated.json").write_text('{"name": "minor-decay", "s": 1')
    code, out, err = run_cli(capsys, *argv, "--out", "r.out")
    assert code == EXIT_VALIDATION and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"validation error: {flag} ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "truncated.json"]


def test_experiment_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"name": "minor-decay", "bogus": 1}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == EXIT_VALIDATION and "bogus" in err


def test_experiment_rejects_budget_key(tmp_path, capsys, monkeypatch):
    # a budget the experiments cannot honour is refused, not silently dropped
    monkeypatch.setenv("HK_CACHE_DIR", str(tmp_path / "cache"))
    cfg = tmp_path / "budget.json"
    cfg.write_text(json.dumps({
        "name": "minor-decay", "s": 12, "k": 3, "X": 200.0,
        "Q_list": [3, 6], "samples": 10, "seed": 5, "budget": 1}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg),
                           "--out", str(tmp_path / "r.json"))
    assert code == EXIT_VALIDATION and "budget" in err
    assert not (tmp_path / "r.json").exists()


def test_experiment_over_budget_table_exits_3(tmp_path, capsys, monkeypatch):
    # a small cell cap stands in for the 1.1 GB table of q = 512 at k = 3:
    # the sup candidates' tables at q = 8, k = 3 hold 320 cells: the 8^2 unit
    # table and 8 x 4 plain rows of 8 cells
    monkeypatch.setenv("HK_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(densities, "TENSOR_CELLS_MAX", 100)
    cfg = tmp_path / "decay.json"
    cfg.write_text(json.dumps({
        "name": "minor-decay", "s": 12, "k": 3, "X": 200.0,
        "Q_list": [3, 6, 12], "samples": 10, "seed": 5}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg),
                           "--out", str(tmp_path / "r.json"))
    assert code == EXIT_BUDGET and "complete-sum table at q=8, k=3: 320 cells" in err
    assert json.loads((tmp_path / "r.json").read_text())["partial"] is True


@pytest.mark.parametrize("config,code,message", [
    ({"s": 12, "k": 3, "X": 200.0, "Q_list": [-3, 5, 10]}, EXIT_VALIDATION,
     "need Q >= 1"),
    # q = 125 has 5.0e7 cells; the smaller tables before it are not built either
    ({"s": 20, "k": 4, "X": 500.0, "Q_list": [50, 100, 250]}, EXIT_BUDGET,
     "complete-sum table at q=125, k=4"),
])
def test_minor_decay_refuses_before_table_work(tmp_path, capsys, monkeypatch,
                                               config, code, message):
    def build_anyway(*args):
        raise AssertionError("a shift table was built for a refused config")

    monkeypatch.setenv("HK_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(densities, "_shift_tables", build_anyway)
    cfg = tmp_path / "decay.json"
    cfg.write_text(json.dumps({"name": "minor-decay", **config}))
    got, _, err = run_cli(capsys, "experiment", "--config", str(cfg),
                          "--out", str(tmp_path / "r.json"))
    assert got == code and message in err


@pytest.mark.parametrize("Q_list,checked", [
    ([64], 0),          # the major arcs at Q = 64 cover the torus: no minor point
    ([2, 4], 10_000),   # Q / s < 1: no major arcs at the dilated cutoff
])
def test_containment_check_ends_on_degenerate_cutoffs(tmp_path, Q_list, checked):
    # a child process with a timeout, so a check that never returns fails
    # this test instead of hanging the suite
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "moment-majorant", "s": 6, "k": 2, "X": 64.0,
                               "Q_list": Q_list, "h": [10, 40], "samples": 2000}))
    out = tmp_path / "r.json"
    env = {**os.environ, "HK_CACHE_DIR": str(tmp_path / "cache"),
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run(
        [sys.executable, "-c", "import sys; from hklab.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "experiment", "--config", str(cfg),
         "--out", str(out), "--no-cache"],
        env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == EXIT_OK, res.stderr
    assert json.loads(out.read_text())["result"]["containment"] == {
        "checked": checked, "passed": checked, "all_pass": True}


def test_w4_main_rejects_seed_key(tmp_path, capsys):
    # nothing in w4-main is random, so a seed would change only the cache key
    cfg = tmp_path / "w4.json"
    cfg.write_text(json.dumps({
        "name": "w4-main", "s": 6, "k": 2, "base_tuple": [0.35, 0.52, 0.21],
        "scale_list": [4], "seed": 3}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg),
                           "--out", str(tmp_path / "r.json"))
    assert code == EXIT_VALIDATION
    assert "unknown config keys for 'w4-main': ['seed']" in err
    assert not (tmp_path / "r.json").exists()


def test_experiment_rejects_unknown_name(tmp_path, capsys):
    cfg = tmp_path / "bad2.json"
    cfg.write_text(json.dumps({"name": "mystery"}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == EXIT_VALIDATION


def test_report_merges_and_warns(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HK_CACHE_DIR", str(tmp_path / "cache"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "minor-decay", "s": 12, "k": 3, "X": 2000.0,
        "Q_list": [5, 10, 20], "samples": 60, "seed": 11}))
    results = tmp_path / "results"
    results.mkdir()
    run_cli(capsys, "experiment", "--config", str(cfg),
            "--out", str(results / "a.json"))
    code, out, _ = run_cli(capsys, "report", "--dir", str(results))
    assert code == EXIT_OK
    assert (results / "merged_minor-decay.csv").exists()
    assert "minor-decay: 1 result(s), 3 row(s)" in out
    # single result: merged rows echo the source rows
    merged = (results / "merged_minor-decay.csv").read_text().splitlines()
    assert len(merged) == 4
    # mixed-version warning
    (results / "old.json").write_text(json.dumps(
        {"experiment": "minor-decay", "result": {"rows": []},
         "meta": {"code_version": "0.0.1"}}))
    code, out, _ = run_cli(capsys, "report", "--dir", str(results))
    assert "mixed code versions" in out


def test_report_partial_artifact_is_not_another_version(tmp_path, capsys, monkeypatch):
    # a partial artifact carries the code version, so one result and one partial
    # blob of the same code read as one version
    monkeypatch.setenv("HK_CACHE_DIR", str(tmp_path / "cache"))
    cfg = tmp_path / "decay.json"
    cfg.write_text(json.dumps({"name": "minor-decay", "s": 12, "k": 3, "X": 200.0,
                               "Q_list": [3, 6, 12], "samples": 10, "seed": 5}))
    results = tmp_path / "results"
    with monkeypatch.context() as m:
        m.setattr(densities, "TENSOR_CELLS_MAX", 100)  # the q = 8 tables exceed it
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                             "--out", str(results / "partial.json"))
    assert code == EXIT_BUDGET
    partial = json.loads((results / "partial.json").read_text())
    assert partial["partial"] is True
    assert partial["meta"]["code_version"] == cli.code_version()
    code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                         "--out", str(results / "done.json"))
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "report", "--dir", str(results))
    assert code == EXIT_OK and "minor-decay: 2 result(s)" in out
    assert "mixed code versions" not in out


def test_report_empty_dir(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report", "--dir", str(tmp_path))
    assert code == EXIT_VALIDATION


def test_verify_identities_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--k", "2",
                           "--X", "10", "--trials", "5")
    assert code == EXIT_OK and "all identity checks pass" in out


def test_result_cache_version_keyed(tmp_path, monkeypatch):
    monkeypatch.setenv("HK_CACHE_DIR", str(tmp_path))
    cache = ResultCache()
    key = cache.key("op", {"a": 1})
    assert cache.get(key) is None
    cache.put(key, b"payload")
    assert cache.get(key) == b"payload"
    # version participates in the key
    import hklab

    other = json.dumps({"op": "op", "inputs": {"a": 1}, "version": "different"},
                       sort_keys=True, separators=(",", ":"))
    import hashlib

    assert hashlib.sha256(other.encode()).hexdigest() != key


def test_experiment_cache_ignores_other_source_hash(tmp_path, capsys, monkeypatch):
    from hklab import __version__, cli

    monkeypatch.setenv("HK_CACHE_DIR", str(tmp_path / "cache"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "minor-decay", "s": 12, "k": 3, "X": 200.0,
        "Q_list": [3, 6, 12], "samples": 30, "seed": 5}))
    current = cli.code_version
    monkeypatch.setattr(cli, "code_version", lambda: __version__ + "+other")
    stale = tmp_path / "stale.json"
    code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                         "--out", str(stale))
    assert code == EXIT_OK
    monkeypatch.setattr(cli, "code_version", current)
    fresh = tmp_path / "fresh.json"
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                           "--out", str(fresh))
    assert code == EXIT_OK and "cache hit" not in out
    assert json.loads(stale.read_text())["meta"]["code_version"].endswith("+other")
    version = json.loads(fresh.read_text())["meta"]["code_version"]
    assert version == current() and version.startswith(__version__ + "+")


def test_n_must_match_k(capsys):
    for cmd in (["local", "--s", "8"], ["count", "--s", "8"],
                ["densities", "--s", "8", "--method", "euler"]):
        code, out, err = run_cli(capsys, *cmd, "--k", "3", "--n", "10,30")
        assert code == EXIT_VALIDATION and "--k is 3" in err
        assert "locally-soluble" not in out
