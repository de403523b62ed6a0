"""CLI surface: formats, exit codes, schema conformance, reproducibility."""

import argparse
import csv
import hashlib
import importlib.resources
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hotspots.cli as cli_mod
import hotspots.zeros as zeros_mod
from hotspots import AccuracyError, TailEstimate, VKind, bessel_j, log_v, optimal_a, bound_value
from hotspots._format import canonical_json, payload_checksum

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

requires_jsonschema = pytest.mark.skipif(jsonschema is None,
                                         reason="jsonschema not installed")


def _schema():
    ref = importlib.resources.files("hotspots") / "schemas" / "output.schema.json"
    return json.loads(ref.read_text())


def _validate(payload):
    jsonschema.Draft202012Validator(_schema()).validate(payload)


def _checksum_ok(payload):
    body = canonical_json(payload["result"]).encode()
    return hashlib.sha256(body).hexdigest() == payload["manifest"]["output_checksum"]


SMALL_MC = ["verify-vbound", "--dim", "2", "--paths", "1500", "--dt", "1e-3",
            "--grid-points", "6", "--seed", "3"]


class TestZeros:
    def test_half_order_is_pi(self, invoke):
        res = invoke(["zeros", "--nu", "0.5", "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["result"]["value"] == pytest.approx(math.pi, abs=1e-10)
        assert payload["manifest"]["subcommand"] == "zeros"
        assert _checksum_ok(payload)

    def test_proot_family(self, invoke):
        res = invoke(["zeros", "--family", "proot", "--dim", "2",
                      "--format", "json"])
        assert res.exit_code == 0
        out = json.loads(res.output)["result"]
        assert out["value"] == pytest.approx(1.8411837813, abs=1e-8)
        assert out["family"] == "proot"

    def test_text_and_csv(self, invoke):
        text = invoke(["zeros", "--nu", "0.5"])
        assert text.exit_code == 0
        assert "value" in text.output
        res = invoke(["zeros", "--nu", "0.5", "--format", "csv"])
        rows = list(csv.reader(io.StringIO(res.output)))
        assert len(rows) == 2
        assert rows[0][0] == "nu"

    def test_missing_selector_is_usage_error(self, invoke):
        assert invoke(["zeros"]).exit_code == 2
        assert invoke(["zeros", "--family", "proot"]).exit_code == 2

    def test_jzero_rejects_dim(self, invoke):
        # an option the family does not use is refused, not left out of the manifest
        res = invoke(["zeros", "--nu", "0.5", "--dim", "10"])
        assert res.exit_code == 2
        assert "--dim" in res.stderr

    def test_proot_rejects_nu(self, invoke):
        res = invoke(["zeros", "--family", "proot", "--dim", "10", "--nu", "5"])
        assert res.exit_code == 2
        assert "--nu" in res.stderr

    def test_uncertified_root_exit_four(self, invoke, monkeypatch):
        # neither J's proven signs nor those at the bracket's ends bracket the root
        monkeypatch.setattr(zeros_mod, "bessel_j", lambda nu, x, signs=None: bessel_j(nu, x))
        monkeypatch.setattr(zeros_mod, "_series_sign", lambda nu, z, family: 0)
        res = invoke(["zeros", "--nu", "1"])
        assert res.exit_code == 4
        assert "no exact sign change" in res.stderr

    def test_failed_qu_wong_bracket_exit_four(self, invoke, monkeypatch):
        # the bound is a theorem, so a bracket without a sign change is a
        # fault to report, not a case to search around
        monkeypatch.setattr(zeros_mod, "_qu_wong_upper", lambda nu: nu + 1.0)
        res = invoke(["zeros", "--nu", "5"])
        assert res.exit_code == 4
        assert res.stderr == ("accuracy error: j-zero nu=5: no sign change on the "
                              "bracket [8.17329983, 6]\n")

    def test_failed_p_root_bracket_exit_four(self, invoke, monkeypatch):
        # the p-root's bracket is checked like the j-zero's
        monkeypatch.setattr(zeros_mod, "_p_series", lambda nu, z: 1.0)
        res = invoke(["zeros", "--family", "proot", "--dim", "5"])
        assert res.exit_code == 4
        assert res.stderr == ("accuracy error: p-root d=5: no sign change on the "
                              "bracket [2.23606798, 2.64575131]\n")

    def test_p_root_not_proven_first_exit_four(self, invoke, monkeypatch):
        # without the proof that S falls up to the bracket, a sign change
        # might sit past an earlier root, and no record is written
        monkeypatch.setattr(zeros_mod, "_p_series_falls_to", lambda nu, sq_up: False)
        res = invoke(["zeros", "--family", "proot", "--dim", "5"])
        assert res.exit_code == 4
        assert res.stderr == (
            "accuracy error: proot nu=2.5: S is not proven to fall on "
            "[0, 6.255664384877036/4], so 2.501132620409397 may not be the first root\n")


class TestTable:
    @requires_jsonschema
    def test_default_table_json(self, invoke):
        res = invoke(["table", "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        _validate(payload)
        assert _checksum_ok(payload)
        rows = payload["result"]["rows"]
        assert [row["d"] for row in rows] == [2, 3, 4, 10, 100]
        by_d = {row["d"]: row for row in rows}
        assert by_d[2]["r"] == pytest.approx(0.5862, abs=1e-12)
        assert by_d[100]["bound"] == pytest.approx(1.8809, abs=1e-3)

    def test_csv_row_count(self, invoke):
        res = invoke(["table", "--format", "csv"])
        rows = list(csv.reader(io.StringIO(res.output)))
        assert len(rows) == 6  # header + 5 dimensions
        res2 = invoke(["table", "--dims", "2,7", "--format", "csv"])
        assert len(list(csv.reader(io.StringIO(res2.output)))) == 3

    def test_text_format(self, invoke):
        res = invoke(["table"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert len(lines) == 7  # header, rule, 5 rows
        assert "bound" in lines[0]

    def test_rerun_is_byte_identical(self, invoke):
        a = invoke(["table", "--dims", "2,3", "--format", "json"])
        b = invoke(["table", "--dims", "2,3", "--format", "json"])
        assert a.output == b.output

    def test_bad_dims_usage_error(self, invoke):
        assert invoke(["table", "--dims", "2,x"]).exit_code == 2
        assert invoke(["table", "--dims", ""]).exit_code == 2


class TestBound:
    @requires_jsonschema
    def test_closed_vogt_dim7_dominates_grid(self, invoke):
        res = invoke(["bound", "--dim", "7", "--ratio", "closed",
                      "--vfunction", "vogt", "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        _validate(payload)
        out = payload["result"]
        assert out["bound"] > 1.0
        r = out["r"]
        grid_best = min(
            bound_value(7, r, VKind.VOGT, eps, optimal_a(eps, r, log_v(VKind.VOGT, eps, 7)))
            for eps in ((1.0 - r) * (i + 0.5) / 100.0 for i in range(100))
        )
        assert out["bound"] <= grid_best + 1e-9

    def test_custom_ratio(self, invoke):
        res = invoke(["bound", "--dim", "7", "--ratio", "custom:0.3",
                      "--format", "json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["result"]["r"] == 0.3

    def test_custom_vfunction_file(self, invoke, tmp_path):
        eps_grid = [k / 200.0 for k in range(1, 201)]
        path = tmp_path / "vogt7.csv"
        path.write_text("\n".join(
            f"{eps},{log_v(VKind.VOGT, eps, 7)}" for eps in eps_grid))
        custom = invoke(["bound", "--dim", "7", "--vfunction",
                         f"custom:{path}", "--format", "json"])
        vogt = invoke(["bound", "--dim", "7", "--vfunction", "vogt",
                       "--format", "json"])
        assert custom.exit_code == 0
        got = json.loads(custom.output)["result"]["bound"]
        ref = json.loads(vogt.output)["result"]["bound"]
        assert got == pytest.approx(ref, abs=1e-3)

    def test_custom_table_starting_above_zero(self, invoke, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("0.1,1\n0.9,2\n")
        res = invoke(["bound", "--dim", "5", "--ratio", "custom:0.5",
                      "--vfunction", f"custom:{path}", "--format", "json"])
        assert res.exit_code == 0, res.output
        assert 0.1 <= json.loads(res.output)["result"]["epsilon"] <= 0.5

    def test_infeasible_ratio_exit_three(self, invoke):
        res = invoke(["bound", "--dim", "4", "--ratio", "4overd"])
        assert res.exit_code == 3
        assert "error" in res.output

    def test_bad_flags_usage_error(self, invoke):
        assert invoke(["bound", "--dim", "7", "--ratio", "nope"]).exit_code == 2
        assert invoke(["bound", "--dim", "7", "--ratio", "custom:x"]).exit_code == 2
        assert invoke(["bound", "--dim", "7", "--vfunction", "nope"]).exit_code == 2
        assert invoke(["bound"]).exit_code == 2

    def test_text_output(self, invoke):
        res = invoke(["bound", "--dim", "3"])
        assert res.exit_code == 0
        assert "epsilon*" in res.output and "3.5288" in res.output


class TestAsymptotic:
    @requires_jsonschema
    def test_geometric_sweep(self, invoke):
        res = invoke(["asymptotic", "--dmin", "10", "--dmax",
                      "1000000", "--points", "6", "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        _validate(payload)
        rows = payload["result"]["rows"]
        assert len(rows) == 6
        assert rows[0]["d"] == 10 and rows[-1]["d"] == 1000000
        ds = [row["d"] for row in rows]
        assert ds == sorted(set(ds))
        assert all(row["bound"] > math.sqrt(math.e) for row in rows)
        assert sorted(payload["manifest"]["parameters"]) == [
            "alpha", "c", "dmax", "dmin", "k", "points"]

    def test_infeasible_family_exit_three(self, invoke):
        res = invoke(["asymptotic", "--dmin", "5", "--dmax", "9",
                      "--points", "3"])
        assert res.exit_code == 3

    def test_no_feasible_dimension_exit_three(self, invoke):
        res = invoke(["asymptotic", "--alpha", "-0.99", "--dmin",
                      "183", "--dmax", "100000000"])
        assert res.exit_code == 3
        assert res.stdout == ""
        assert res.stderr == (
            "error: no feasible dimension up to 1000000 for c=1, alpha=-0.99\n")

    def test_csv(self, invoke):
        res = invoke(["asymptotic", "--dmin", "10", "--dmax", "100",
                      "--points", "4", "--format", "csv"])
        rows = list(csv.reader(io.StringIO(res.output)))
        assert rows[0] == ["d", "bound"]
        assert len(rows) == 5

    def test_bad_ranges_usage_error(self, invoke):
        assert invoke(["asymptotic", "--dmin", "4", "--dmax", "10"]).exit_code == 2
        assert invoke(["asymptotic", "--dmin", "20", "--dmax", "10"]).exit_code == 2

    def test_oversized_grid_rejected_before_it_is_built(self, invoke):
        # the grid is a list of floats: a billion points would exhaust memory,
        # so the cap is checked first; 10^6 + 1 fails fast without the cap too
        for count in ("0", "1000001", "1000000000", _HUGE):
            res = invoke(["asymptotic", "--dmin", "5", "--dmax", "9",
                          "--points", count])
            assert res.exit_code == 2, (count, res.output)
            assert "--points" in res.output


class TestVerifyVBound:
    @requires_jsonschema
    def test_small_run_passes_schema(self, invoke):
        res = invoke(SMALL_MC)
        assert res.exit_code == 0
        payload = json.loads(res.output)
        _validate(payload)
        assert _checksum_ok(payload)
        out = payload["result"]
        assert out["passed"] is True
        assert len(out["t_grid"]) == 6
        assert out["survival"][0] == 1.0

    def test_byte_identical_reruns(self, invoke):
        a = invoke(SMALL_MC)
        b = invoke(SMALL_MC)
        assert a.output == b.output
        c = invoke(SMALL_MC[:-1] + ["4"])  # different seed
        assert c.output != a.output

    def test_box_domain(self, invoke):
        res = invoke(["verify-vbound", "--shape", "box", "--sides",
                      "1,1", "--dim", "2", "--paths", "1000",
                      "--dt", "5e-4", "--grid-points", "5",
                      "--seed", "1"])
        assert res.exit_code == 0
        out = json.loads(res.output)["result"]
        assert out["lambda"] == pytest.approx(2.0 * math.pi**2, rel=1e-12)

    def test_text_format(self, invoke):
        res = invoke(SMALL_MC + ["--format", "text"])
        assert res.exit_code == 0
        assert "PASS" in res.output

    def test_failed_bound_exit_five(self, invoke, monkeypatch):
        import hotspots.montecarlo as mc
        grid = tuple(float(t) for t in np.linspace(0.0, 2.0, 6))
        fake = TailEstimate(t_grid=grid, survival=(1.0,) * 6,
                            ci_low=(0.99,) * 6, ci_high=(1.0,) * 6,
                            n_paths=1000, config_fingerprint="0" * 64)
        monkeypatch.setattr(mc, "estimate_survival", lambda cfg, tau: fake)
        res = invoke(SMALL_MC)
        assert res.exit_code == 5

    def test_accuracy_failure_exit_four(self, invoke, monkeypatch):
        import hotspots.montecarlo as mc

        def boom(cfg):
            raise AccuracyError("paths outlived the simulation horizon")

        monkeypatch.setattr(mc, "sample_exit_times", boom)
        res = invoke(SMALL_MC)
        assert res.exit_code == 4
        assert "accuracy" in res.output

    @pytest.mark.parametrize("fault, line", [
        ("zero", "accuracy error: j-zero nu=0: no proven sign change near "),
        ("budget", "accuracy error: the centre's table for nu=0 is off by up to 1.11e-16\n"),
    ], ids=["zero_off_its_root", "budget_below_the_bound"])
    def test_centre_table_refusals_exit_four(self, invoke, monkeypatch, fault, line):
        # a float zero moved off its root leaves no proven sign change near
        # it; a budget below the table's computed bound refuses the table
        import hotspots.montecarlo as mc
        if fault == "zero":
            real = mc.next_bessel_zero
            monkeypatch.setattr(mc, "next_bessel_zero",
                                lambda nu, previous, k: real(nu, previous, k) + 1e-3)
        else:
            monkeypatch.setattr(mc, "_SUM_ERROR", 1e-20)
        mc._centre_inverse.cache_clear()  # so that the disc's table is built here
        res = invoke(SMALL_MC)
        assert res.exit_code == 4, res.output
        assert res.stdout == ""
        assert res.stderr.startswith(line)

    def test_ball_above_dimension_222_exit_three(self, invoke):
        # the zeros of J_nu are found for nu <= 110, that is d <= 222; the
        # refusal names the dimension given, and a box of that dimension runs
        res = invoke(["verify-vbound", "--dim", "223", "--paths", "100"])
        assert res.exit_code == 3, res.output
        assert res.stdout == ""
        assert res.stderr == "error: a ball supports dim <= 222, got 223\n"
        res = invoke(["verify-vbound", "--shape", "box", "--sides", ",".join(["1"] * 223),
                      "--dim", "223", "--paths", "100"])
        assert res.exit_code == 0, res.output

    def test_usage_errors(self, invoke):
        assert invoke(["verify-vbound", "--shape", "box",
                       "--dim", "2"]).exit_code == 2
        assert invoke(["verify-vbound", "--shape", "box", "--sides",
                       "1,1,1", "--dim", "2"]).exit_code == 2
        assert invoke(["verify-vbound", "--dim", "2", "--vfunction",
                       "custom:whatever"]).exit_code == 2
        assert invoke(["verify-vbound", "--shape", "box", "--sides",
                       "1,x", "--dim", "2"]).exit_code == 2

    @pytest.mark.parametrize("domain", [
        ["--radius", "1e300"],
        ["--shape", "box", "--sides", "1e300,1e300"],
        ["--shape", "box", "--sides", "1e-300,1"],
    ], ids=["huge_ball", "huge_box", "tiny_side"])
    def test_eigenvalue_out_of_range_exit_three(self, invoke, domain):
        # lambda underflows to 0.0 or overflows; the default dt and grid are
        # derived from it, so it must be rejected before either is built
        res = invoke(["verify-vbound", "--dim", "2"] + domain)
        assert res.exit_code == 3, res.exception
        assert isinstance(res.exception, SystemExit)
        assert "eigenvalue" in res.output

    @pytest.mark.filterwarnings("error")
    def test_long_box_axis_is_quiet(self, invoke):
        # the long side's side^2 / dt overflows to inf, so its exit times are
        # inf, never computed as a NaN: no RuntimeWarning may reach stderr
        res = invoke(["verify-vbound", "--shape", "box", "--sides", "1e300,1", "--dim",
                      "2", "--dt", "1e-3", "--paths", "10"])
        assert res.exit_code == 0, res.exception
        assert res.stderr == ""

    @pytest.mark.parametrize("flag", ["--no-bridge", "--bridge"])
    def test_bridge_flags_are_unrecognized(self, invoke, flag):
        # every exit time is drawn from its exact law, so there is no stepper
        # whose crossing correction a flag could turn on or off
        for domain in (["--dim", "2"], ["--shape", "box", "--sides", "1,1", "--dim", "2"]):
            res = invoke(["verify-vbound", *domain, "--paths", "50", flag])
            assert res.exit_code == 2
            assert f"unrecognized arguments: {flag}" in res.stderr

    def test_ball_rejects_sides(self, invoke):
        # no side is used, so the manifest must not record any
        res = invoke(["verify-vbound", "--shape", "ball", "--dim", "2",
                      "--sides", "1,2,3"])
        assert res.exit_code == 2
        assert "--sides" in res.output

    def test_box_rejects_radius(self, invoke):
        # a box has no radius, so the manifest must not record one; the
        # default radius is not "given", so a plain box run still works
        box = ["verify-vbound", "--shape", "box", "--sides", "1,1", "--dim", "2",
               "--paths", "50", "--dt", "1e-3", "--grid-points", "5"]
        for radius in ("7", "1.0"):
            res = invoke(box + ["--radius", radius])
            assert res.exit_code == 2
            assert "--radius" in res.output
        res = invoke(box)
        assert res.exit_code == 0
        assert json.loads(res.output)["manifest"]["parameters"]["radius"] is None

    def test_one_bessel_root_per_ball_run(self, invoke, monkeypatch):
        # lambda and the centre's table both need j_1; one root search serves
        # both.  The cached zero and table are cleared, so both are made here
        import hotspots.montecarlo as mc
        real = mc.first_bessel_zero
        orders = []

        def counting(nu):
            orders.append(nu)
            return real(nu)

        monkeypatch.setattr(mc, "first_bessel_zero", counting)
        for cached in (mc._ball_zero, mc._centre_inverse):
            cached.cache_clear()
        res = invoke(SMALL_MC)
        assert res.exit_code == 0, res.output
        assert orders == [0.0]

    @pytest.mark.parametrize("domain", [
        ["--dim", "2"], ["--shape", "box", "--sides", "1,1", "--dim", "2"],
    ], ids=["ball", "box"])
    def test_one_eigenvalue_per_run(self, invoke, monkeypatch, domain):
        # the command computes lambda once, for its grid and its bound; the
        # sampler needs none
        import hotspots.montecarlo as mc
        real = mc.principal_eigenvalue
        domains = []

        def counting(dom):
            domains.append(dom)
            return real(dom)

        monkeypatch.setattr(mc, "principal_eigenvalue", counting)
        res = invoke(["verify-vbound", *domain, "--paths", "100"])
        assert res.exit_code == 0, res.output
        assert len(domains) == 1

    def test_oversized_grid_rejected_before_it_is_built(self, invoke, monkeypatch):
        # a billion grid points cannot fit any dt the run uses; the check must
        # come before default_t_grid allocates them
        import hotspots.montecarlo as mc
        built = []
        monkeypatch.setattr(mc, "default_t_grid",
                            lambda lam, points: built.append(points))
        for extra in ([], ["--dt", "-1"], ["--dt", "nan"]):
            for count in ("1000000000", _HUGE):
                res = invoke(["verify-vbound", "--dim", "2", "--paths",
                              "100", "--grid-points", count] + extra)
                assert res.exit_code == 3, (count, extra, res.output)
        assert built == []

    @pytest.mark.parametrize("shape", [
        ["--dim", "2"],
        ["--shape", "box", "--sides", "1,1", "--dim", "2"],
    ], ids=["ball", "box"])
    def test_grid_past_the_step_cap_exit_three_before_it_is_built(self, invoke,
                                                                  monkeypatch, shape):
        # a tiny dt fits a billion points' spacing, but the grid would not fit
        # the memory cap on grid points: the count is refused before the grid
        # exists
        import hotspots.montecarlo as mc
        built = []
        monkeypatch.setattr(mc, "default_t_grid",
                            lambda lam, points: built.append(points))
        res = invoke(["verify-vbound"] + shape + ["--paths", "100",
                      "--grid-points", "1000000000", "--dt", "1e-12"])
        assert res.exit_code == 3, res.output
        assert res.stdout == ""
        assert res.stderr == (
            "error: grid_points=1000000000 is too many; at most 1500001 "
            "are allowed\n")
        assert built == []

    @pytest.mark.parametrize("domain", [
        ["--dim", "37"], ["--dim", "40"],
        ["--shape", "box", "--sides", ",".join(["1"] * 51), "--dim", "51"],
    ], ids=["ball37", "ball40", "box51"])
    def test_default_dt_fits_the_grid_in_high_dimension(self, invoke, domain):
        # there a tenth of the grid's spacing 0.5 / lambda is below 1e-4 L^2,
        # and the default dt must be that tenth, not a dt SimConfig refuses
        res = invoke(["verify-vbound", "--paths", "100"] + domain)
        assert res.exit_code in (0, 5), res.output

    @pytest.mark.parametrize("domain", [
        ["--dim", "2"], ["--shape", "box", "--sides", "1,1", "--dim", "2"],
    ], ids=["disc", "square"])
    def test_a_fine_dt_runs(self, invoke, domain):
        # nothing is stepped, so dt = 1e-9 costs no more than the default
        res = invoke(["verify-vbound", *domain, "--paths", "2000", "--dt", "1e-9"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["manifest"]["parameters"]["dt"] == 1e-9

    @pytest.mark.filterwarnings("error")
    def test_every_domain_size_exits_zero_or_three(self, invoke):
        # balls and squares of side 10^k, k = -320..320: a size whose
        # eigenvalue or time grid overflows a float exits 3 with one line on
        # stderr, and every other one runs quietly
        sizes = [f"1e{k}" for k in range(-320, 321, 10)] + ["9e153", "1e154", "1e160"]
        for size in sizes:
            for domain in (["--radius", size],
                           ["--shape", "box", "--sides", f"{size},{size}"]):
                res = invoke(["verify-vbound", "--dim", "2", "--paths", "100", *domain])
                assert res.exit_code in (0, 3), (domain, res.output)
                if res.exit_code == 0:
                    assert res.stderr == "", domain
                else:
                    assert res.stdout == "" and res.stderr.startswith("error: "), domain
        res = invoke(["verify-vbound", "--dim", "2", "--paths", "100", "--radius", "1e154"])
        assert res.stderr == (
            "error: the time grid to 12 / lambda = inf overflows a float: "
            "its size is out of range\n")

    def test_huge_path_count_exit_three_before_sampling(self, invoke, monkeypatch):
        # 10^12 paths would need 8 TB for the exit steps alone: refused by
        # SimConfig with one line on stderr, before any sampler runs
        import hotspots.montecarlo as mc
        runs = []
        monkeypatch.setattr(mc, "_exact_exit_times", lambda *a: runs.append(a))
        monkeypatch.setattr(mc, "sample_exit_times", lambda *a: runs.append(a))
        res = invoke(["verify-vbound", "--dim", "2", "--paths", "1000000000000"])
        assert res.exit_code == 3, res.output
        assert res.stdout == ""
        assert res.stderr == (
            "error: n_paths=1000000000000 is too many; at most 1e+08 are allowed\n")
        assert runs == []

    @pytest.mark.parametrize("argv, line", [
        (["--epsilon", "1.5"], "error: epsilon must lie in (0, 1), got 1.5\n"),
        (["--epsilon", "0"], "error: epsilon must lie in (0, 1), got 0.0\n"),
        (["--dim", "1"], "error: dimension must be an integer >= 2, got 1\n"),
        (["--vfunction", "improved", "--dim", "201", "--dt", "1e-6"],
         "error: improved Vogt V supports d <= 200, got 201\n"),
        (["--dim", "6", "--epsilon", "1e-300", "--paths", "100", "--dt", "1e-3"],
         "error: V(epsilon, dim) = exp(1034.26) overflows a float\n"),
    ], ids=["epsilon_above_one", "epsilon_zero", "dim_one", "improved_dim_201",
            "v_overflows_a_float"])
    def test_unusable_v_bound_exit_three_before_sampling(self, invoke, monkeypatch,
                                                         argv, line):
        # check_vbound runs after the simulation; a bound it cannot evaluate
        # must be refused before any path is drawn
        import hotspots.montecarlo as mc
        runs = []
        monkeypatch.setattr(mc, "_exact_exit_times", lambda *a: runs.append(a))
        res = invoke(["verify-vbound", "--dim", "2", "--paths", "100000"] + argv)
        assert res.exit_code == 3, res.output
        assert res.stderr == line
        assert runs == []

    def test_vacuous_or_overflowing_v_exit_three(self, invoke):
        # eps = 1 makes the bound V e^0 >= 1, which no estimate can violate;
        # eps = 1e-300 at d = 6 makes V overflow a float, and so does d = 10^400
        for dim, eps in (("2", "1"), ("6", "1e-300"), (_HUGE, "0.5")):
            res = invoke(["verify-vbound", "--dim", dim, "--paths", "100",
                          "--dt", "1e-3", "--epsilon", eps])
            assert res.exit_code == 3, res.output


def test_lazy_names_resolve_and_table_loads_no_numpy_or_montecarlo():
    # scipy is a test dependency only: the package computes its
    # Clopper-Pearson limits with math, and scipy.special alone was about
    # 0.2 s of every command's cold start (scipy.stats about a second).
    # numpy, about 0.07 s, loads with hotspots.montecarlo on first use only.
    src = str(pathlib.Path(cli_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = textwrap.dedent("""
        import json, sys
        def heavy():
            return sorted(m for m in sys.modules if m == "hotspots.montecarlo"
                          or m.split(".")[0] in ("scipy", "numpy", "click"))
        seen = {}
        import hotspots
        seen["package"] = heavy()
        import hotspots.cli
        seen["cli"] = heavy()
        hotspots.cli.main(["table", "--dims", "2,3"])
        seen["table"] = heavy()
        seen["SimConfig"] = hotspots.SimConfig.__module__
        seen["loaded"] = ["numpy" in sys.modules, "hotspots.montecarlo" in sys.modules]
        try:
            hotspots.no_such_name
        except AttributeError as exc:
            seen["missing"] = str(exc)
        star = {}
        exec("from hotspots import *", star)
        seen["unbound"] = sorted(set(hotspots.__all__) - set(star))
        print(json.dumps(seen))
    """)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    table, _, last = out.rstrip("\n").rpartition("\n")
    assert table.startswith("   d        p^2")  # the table was printed
    seen = json.loads(last)
    assert seen.pop("package") == seen.pop("cli") == seen.pop("table") == []
    assert seen == {
        "SimConfig": "hotspots.montecarlo",
        "loaded": [True, True],
        "missing": "module 'hotspots' has no attribute 'no_such_name'",
        "unbound": [],
    }


def test_console_entry_reads_sys_argv():
    # main() with no arguments parses sys.argv, as the console script calls it
    src = str(pathlib.Path(cli_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-m", "hotspots.cli", "zeros", "--nu", "0.5"],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("family=jzero  nu=0.5\n")


def test_version_flag(invoke):
    res = invoke(["--version"])
    assert res.exit_code == 0
    assert "hotspots" in res.output
    assert res.output == "hotspots, version 0.1.0\n"



def test_help_ignores_columns(invoke, monkeypatch):
    # argparse wraps at the width COLUMNS gives unless the formatter fixes
    # one; the help is wrapped at 78 columns wherever it runs
    helps = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        helps[columns] = [invoke(argv).stdout for argv in (
            ["--help"], ["table", "--help"], ["bound", "--help"], ["zeros", "--help"],
            ["asymptotic", "--help"], ["verify-vbound", "--help"])]
    assert helps["40"] == helps["200"]
    assert max(len(line) for text in helps["40"] for line in text.splitlines()) <= 78
    # the digest the numpy-free CI job checks on Pythons 3.10, 3.12 and 3.13
    assert hashlib.sha256("".join(helps["40"]).encode()).hexdigest() == (
        "6de4dd71ae0c86da50589f48f4e85cfe74c0c181cf9f164f935ac1bdfbc053c2")

# How argv is read.  A value option takes the next word even when it starts
# with "-" (argparse alone would read -1e-05 or -inf as an unknown option and
# exit 2), so those runs reach the command, which refuses the value with exit
# 3.  Options are never abbreviated and the last value of an option counts.
# --help acts wherever it stands, but not past an unknown option or a flag
# given a value.  "--" may come before the command name or end the argv, and
# "--" as a value is refused, as argparse would strip it and pass an empty
# list on.  A V table path that cannot be opened, even one holding a NUL
# byte, is a usage error.
_PARSE_RESULTS = [
    ([], 2),
    (["nope"], 2),
    (["bound", "--di", "7"], 2),
    (["bound", "--dim", "7", "extra"], 2),
    (["bound", "--dim", "7", "--format", "yaml"], 2),
    (["bound", "--dim", "7", "--radius", "1"], 2),
    (["--help"], 0),
    (["bound", "--help"], 0),
    (["bound", "--dim=7", "--format=json"], 0),
    (["bound", "--dim", "7", "--tolerance", "-1e-05"], 3),
    (["bound", "--dim", "7", "--tolerance", "-inf"], 3),
    (["verify-vbound", "--shape", "box", "--sides", "-1,1", "--dim", "2", "--paths", "10"], 3),
    (["asymptotic", "--dmin", "10", "--dmax", "100", "--c", "-1e-3"], 3),
    (["bound", "--dim", "x", "--help"], 0),
    (["table", "--"], 0),
    (["bound", "--dim", "7", "--", "x"], 2),
    (["bound", "--dim"], 2),
    (["table", "--tolerance", "--"], 2),
    (["zeros", "--nu=--"], 2),
    (["--", "bound", "--dim", "7"], 0),
    (["--", "--version"], 0),
    (["--", "-x"], 2),
    (["bound", "--help", "--nope"], 2),
    (["bound", "--dim", "7", "--help=1"], 2),
    (["bound", "--dim", "x", "--dim", "7"], 0),
    (["bound", "--dim", "7", "--vfunction", "custom:v\0.csv"], 2),
]


@pytest.mark.parametrize("argv, code", _PARSE_RESULTS,
                         ids=[" ".join(argv) or "no-arguments" for argv, _ in _PARSE_RESULTS])
def test_parse_results(invoke, argv, code):
    assert invoke(argv).exit_code == code


# One valid argv of each command, and two usage errors: parse_args reads them
# all without argparse's own parse loop, which would read argv a second time,
# and converts each value itself.  argparse's _get_values sees a word only to
# refuse it (the last word of each usage error), and writes the error line.
_FAST_PATH = [
    (["table", "--dims", "2"], 0),
    (["bound", "--dim", "7", "--format", "json"], 0),
    (["zeros", "--nu", "0.5"], 0),
    (["asymptotic", "--dmin", "10", "--dmax", "100", "--format", "csv"], 0),
    (SMALL_MC, 0),
    (["bound", "--dim", "x"], 2),
    (["nope"], 2),
]


@pytest.mark.parametrize("argv, code", _FAST_PATH, ids=[argv[0] for argv, _ in _FAST_PATH])
def test_argv_is_read_in_one_pass(invoke, monkeypatch, argv, code):
    def second_pass(*args, **kwargs):
        raise AssertionError("argparse parsed argv again")

    converted = []
    get_values = argparse.ArgumentParser._get_values

    def convert(parser, action, words):
        converted.append(list(words))
        if code == 0:
            raise AssertionError("argparse converted a value")
        return get_values(parser, action, words)

    monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args", second_pass)
    monkeypatch.setattr(argparse.ArgumentParser, "_get_values", convert)
    res = invoke(argv)
    assert res.exit_code == code, (res.exception, res.output)
    assert converted == ([[argv[-1]]] if code else [])
    if code:  # argparse's line: "hotspots bound: error: argument --dim: invalid int value: 'x'"
        line = res.stderr.splitlines()[-1]
        assert "error: argument " in line and ": invalid " in line and repr(argv[-1]) in line


def test_json_output_is_the_canonical_document(capsys):
    result = {"rows": [{"d": 2, "bound": 3.5, "cells": [0.1, None, "x"]},
                       {"d": 10, "bound": 2.25, "cells": []}], "passed": True}
    params = {"dims": [2, 10], "tolerance": 1e-9}
    cli_mod._emit("json", "table", params, result, [], [], lambda: "")
    manifest = {"subcommand": "table", "parameters": params,
                "version": cli_mod.__version__, "output_checksum": payload_checksum(result)}
    assert capsys.readouterr().out == canonical_json(
        {"manifest": manifest, "result": result}) + "\n"


# ---------------------------------------------------------------- exit codes

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}

_HUGE = "1" + "0" * 400  # an int no float can hold
_ODD = ["x", "", "nan", "inf", "-inf", "1e-300", "1e308", "0", "-0", "-1", "1", "2", _HUGE,
        "1\0"]
_NUMBER = st.one_of(st.sampled_from(_ODD), st.integers(-5, 300).map(str),
                    st.floats(-1e3, 1e3).map(repr))
_FORMAT = st.sampled_from(["text", "json", "csv", "yaml"])
# V tables by name; the fixture below writes them into a temporary directory
_V_TABLES = {
    "good": "0.1,1\n0.9,2\n",
    "wide": "".join(f"{k / 100},{k / 10}\n" for k in range(1, 101)),
    "bad_row": "0.1,1,3\n0.5,2\n",
    "text": "eps,logv\n0.5,2\n",
    "one_row": "0.5,1\n",
    "decreasing": "0.9,1\n0.1,2\n",
    "negative": "0.1,-1\n0.9,2\n",
    "nan": "0.1,nan\n0.9,2\n",
    "binary": b"\xff\xfe\x00\x01",
}


def _vfunction(tables):
    names = st.sampled_from(sorted(tables) + ["missing"])
    return st.one_of(st.sampled_from(["vogt", "improved", "custom", "nope", "custom:v\0"]),
                     names.map(lambda name: f"custom:{tables.get(name, '/no/such/file')}"))


def _options(**strategies):
    """argv fragments: a random subset of the given options, in random order."""
    pairs = [st.tuples(st.just(flag), value) for flag, value in strategies.items()]
    return st.lists(st.one_of(*pairs), max_size=len(pairs)).map(
        lambda chosen: [word for pair in chosen for word in pair])


def _argv(tables):
    vfunction = _vfunction(tables)
    dims = st.lists(st.one_of(st.integers(-2, 205).map(str), st.just(_HUGE)),
                    max_size=3).map(",".join)
    table = _options(**{"--dims": st.one_of(dims, st.sampled_from(["2,x", ""])),
                        "--vfunction": vfunction, "--tolerance": _NUMBER,
                        "--format": _FORMAT})
    ratio = st.one_of(st.sampled_from(["bessel", "closed", "4overd", "custom", "nope"]),
                      _NUMBER.map(lambda v: f"custom:{v}"))
    bound = _options(**{"--dim": st.one_of(st.integers(-2, 210).map(str),
                                           st.sampled_from(["10000000000", "1e3", _HUGE])),
                        "--ratio": ratio, "--vfunction": vfunction,
                        "--tolerance": _NUMBER, "--format": _FORMAT})
    zeros = _options(**{"--nu": _NUMBER, "--dim": _NUMBER,
                        "--family": st.sampled_from(["jzero", "proot", "nope"]),
                        "--format": _FORMAT})
    asymptotic = _options(**{"--dmin": _NUMBER, "--dmax": st.one_of(
                                 _NUMBER, st.sampled_from(["100000000", "10000000000"])),
                             "--points": st.integers(-2, 40).map(str),
                             "--c": st.sampled_from(["1", "2", "0.5", "0", "-1", "nan", "x"]),
                             "--alpha": st.sampled_from(["-0.5", "-0.6", "-0.99", "-1",
                                                         "0", "nan"]),
                             "--format": _FORMAT})
    # Monte Carlo sizes stay small (paths <= 200, dt >= 1e-3, finite lengths
    # <= 2, always given) so each run takes well under a second; a huge grid
    # count is rejected before its grid is built, and so is a length whose
    # principal eigenvalue underflows to 0 or overflows, or whose time grid
    # overflows (a disc of radius 1e154 or 1e160)
    extreme = ["1e300", "1e-300", "1e154", "1e160"]
    side = st.sampled_from(["0.5", "1", "2", "0.3", "0", "-1", "nan", "inf", "x", ""] + extreme)
    verify = _options(**{
        "--shape": st.sampled_from(["ball", "box", "nope"]),
        "--radius": st.sampled_from(["0.5", "1", "2", "0", "-1", "nan", "inf", "x"] + extreme),
        "--sides": st.lists(side, min_size=1, max_size=3).map(",".join),
        "--epsilon": _NUMBER,
        "--vfunction": vfunction,
        "--seed": st.one_of(st.integers(-2, 2**64).map(str), st.just("x")),
        "--grid-points": st.one_of(st.integers(-1, 40).map(str),
                                   st.sampled_from(["1000000000", _HUGE])),
        "--chunk-size": st.integers(-1, 300).map(str),
        "--format": _FORMAT,
    })
    sizes = st.tuples(
        st.one_of(st.integers(-1, 6), st.just(_HUGE)), st.integers(-2, 200),
        st.one_of(st.floats(1e-3, 1.0), st.sampled_from(["0", "-1", "nan", "inf", "x"])),
    ).map(lambda s: ["--dim", str(s[0]), "--paths", str(s[1]), "--dt", str(s[2])])
    verify = st.tuples(sizes, verify).map(lambda parts: sum(parts, []))
    return st.one_of(
        table.map(lambda rest: ["table"] + rest),
        bound.map(lambda rest: ["bound"] + rest),
        zeros.map(lambda rest: ["zeros"] + rest),
        asymptotic.map(lambda rest: ["asymptotic"] + rest),
        verify.map(lambda rest: ["verify-vbound"] + rest),
        st.sampled_from([[], ["--version"], ["--help"], ["nope"], ["bound", "--help"]]),
    )


@pytest.fixture(scope="module")
def v_tables(tmp_path_factory):
    root = tmp_path_factory.mktemp("vtables")
    paths = {}
    for name, body in _V_TABLES.items():
        path = root / f"{name}.csv"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body)
        paths[name] = str(path)
    return paths


def test_every_argv_ends_in_a_documented_exit_code(invoke, v_tables):
    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_argv(v_tables))
    def run(argv):
        res = invoke(argv)
        assert res.exit_code in DOCUMENTED_EXIT_CODES, (argv, res.exception, res.output)

    run()


# ---------------------------------------------------------------- golden bytes


class TestGoldenCli:
    """sha256 over (argv, stdout, stderr, exit code) of each command line
    below, run once in each of the three formats.

    These freeze every byte the command line writes, text and CSV as well as
    JSON: a change to any number, column, label or message must announce it
    and re-freeze the digest.  The values were produced with numpy 2.4 on
    x86-64 Linux; the verify-vbound runs depend on numpy's exp, log and
    sqrt and the C library's erf and erfc, and their interval cells on the
    C library's log, log1p, exp and expm1.  They do not depend on numpy's
    interp: the exit-time tables are inverted by exact searches and a
    separate multiply and add per draw.
    """

    @staticmethod
    def _hash(invoke, argvs):
        h = hashlib.sha256()
        for argv in argvs:
            res = invoke(argv)
            h.update(canonical_json([argv, res.stdout, res.stderr, res.exit_code]).encode())
        return h.hexdigest()

    @classmethod
    def _digest(cls, invoke, argvs):
        return cls._hash(invoke, [argv + ["--format", fmt] for argv in argvs
                                  for fmt in ("text", "json", "csv")])

    def test_table(self, invoke):
        assert self._digest(invoke, [["table", "--dims", "2,7,150"]]) == (
            "28ee55b15d775f925533de8b7deda7788ce7dc65d8911d86ab0d9842ed48fc95")

    def test_table_display_cells(self, invoke):
        # text shows only the displayed (rounded) cells: p^2 up, j^2 down, r
        # up, epsilon, a and bound.  The floats behind them may move by an
        # ulp with the root finder; these cells may not.
        dims = ",".join(str(d) for d in range(2, 201))
        assert self._hash(invoke, [["table", "--dims", dims, "--format", "text"]]) == (
            "e47b803932148682062eee9d40a55217eaa0d95bc1612c096881e89756c81cb2")

    def test_bound(self, invoke):
        assert self._digest(invoke, [
            ["bound", "--dim", "7", "--ratio", "closed", "--vfunction", "vogt"],
            ["bound", "--dim", "7", "--ratio", "custom:0.3"],
            ["bound", "--dim", "3"],
        ]) == "4184e1c568e1239319f1e16401594eab0491c3811fd2dd91aeff4c955f23e6fc"

    def test_zeros(self, invoke):
        assert self._digest(invoke, [
            ["zeros", "--nu", "0.5"],
            ["zeros", "--family", "proot", "--dim", "10"],
        ]) == "b5f4876baf5498e2af8e46df84558ae92e9863283e26758b16455e91b04eae7c"

    def test_asymptotic(self, invoke):
        assert self._digest(invoke, [
            ["asymptotic", "--dmin", "10", "--dmax", "100000000"],
        ]) == "09f2cec2877acfdbcbe06dfee270fd87b0663e5326a1b89c5608de4ab0a85d24"

    def test_verify_vbound(self, invoke):
        assert self._digest(invoke, [
            ["verify-vbound", "--dim", "2", "--paths", "500"],
            ["verify-vbound", "--shape", "box", "--sides", "1,1", "--dim", "2",
             "--paths", "500"],
        ]) == "6f73b256e02e588a4cf57f177d819c015536900fb0b0266c66ad534a4e46f5fe"

    def test_verify_vbound_apart_from_the_intervals(self, invoke):
        # the runs of test_verify_vbound and the small run of test_parse_errors,
        # without the cells the Clopper-Pearson limits feed (the CSV ci_low
        # and ci_high columns; the JSON ci_low, ci_high, worst_margin and the
        # checksum over them): exit times, survival, t-grid, bound curve,
        # passed flag, fingerprint and the text report stay as they are
        h = hashlib.sha256()
        for argv in (["verify-vbound", "--dim", "2", "--paths", "500"],
                     ["verify-vbound", "--shape", "box", "--sides", "1,1", "--dim", "2",
                      "--paths", "500"],
                     ["verify-vbound", "--dim", "2", "--paths", "200", "--dt", "1e-3",
                      "--grid-points", "6"]):
            for fmt in ("text", "json", "csv"):
                res = invoke(argv + ["--format", fmt])
                out = res.stdout
                if fmt == "json":
                    doc = json.loads(out)
                    del doc["manifest"]["output_checksum"]
                    for key in ("ci_low", "ci_high", "worst_margin"):
                        del doc["result"][key]
                    out = canonical_json(doc)
                elif fmt == "csv":
                    out = [[c for c, name in zip(row, ["t", "survival", "ci_low",
                                                       "ci_high", "bound"])
                            if not name.startswith("ci_")]
                           for row in csv.reader(io.StringIO(out))]
                h.update(canonical_json([argv, fmt, out, res.stderr, res.exit_code]).encode())
        assert h.hexdigest() == (
            "6e3acac2029a2c8ddba9ed236a80266de27561a4d79a8e6cd37fc1d29e2d6885")

    def test_usage_and_infeasible_errors(self, invoke):
        assert self._digest(invoke, [
            ["table", "--dims", "2,x"],  # exit 2
            ["bound", "--dim", "4", "--ratio", "4overd"],  # exit 3
        ]) == "c43e73b662622d448cb616202230d4a75879605d1094810eb07507a3b9aa7ebc"

    def test_failed_bound_exit_five(self, invoke, monkeypatch):
        # the fake estimate of TestVerifyVBound.test_failed_bound_exit_five
        import hotspots.montecarlo as mc
        grid = tuple(float(t) for t in np.linspace(0.0, 2.0, 6))
        fake = TailEstimate(t_grid=grid, survival=(1.0,) * 6,
                            ci_low=(0.99,) * 6, ci_high=(1.0,) * 6,
                            n_paths=1000, config_fingerprint="0" * 64)
        monkeypatch.setattr(mc, "estimate_survival", lambda cfg, tau: fake)
        assert self._digest(invoke, [SMALL_MC]) == (
            "18f08d0d9243566d8b28cd0f98433d1de1b16a2e0a20b58f5b34882270b2a250")

    def test_parse_errors(self, invoke):
        # each argv once, as written: usage, help and version lines and the
        # order in which the parser reports its errors
        small = ["verify-vbound", "--dim", "2", "--paths", "200", "--dt", "1e-3",
                 "--grid-points", "6"]
        assert self._hash(invoke, [
            [], ["nope"], ["-"], ["--"], ["--", "--", "bound"], ["--", "--"],
            ["--", "--version"], ["--", "-x"], ["--help", "--version"],
            ["--version", "--help"], ["--version", "nope"], ["nope", "--version"],
            ["bound", "--di", "7"], ["bound", "--dim"], ["bound", "--dim", "--"],
            ["zeros", "--nu=--"], ["table", "--tolerance", "--", "--dims", "2"],
            ["bound", "--dim", "--", "--format", "yaml"], ["bound", "--dim", "--", "--help"],
            ["bound", "--dim", "7", "--help=1"], small + ["--bridge=1"],
            small + ["--no-bridge", "--bridge"], small + ["--bridge", "--no-bridge", "--help"],
            ["bound", "--dim", "7", "--format", "yaml"], ["bound", "--format", "yaml"],
            ["bound", "--dim", "x", "--help"], ["bound", "--dim", "x", "--dim", "7"],
            ["verify-vbound", "--dim", "x", "--paths", "y", "--shape", "cone"],
            ["asymptotic"], ["asymptotic", "--dmax", "100"], ["asymptotic", "--dmin", "x"],
            ["bound", "--dim", "7", "a", "b", "--", "c"], ["bound", "x", "--dim", "7"],
            ["bound", "-", "--dim", "7"], ["table", "--", "x"], ["table", "--"],
            ["bound", "--version"], ["--version"], ["--help"], ["bound", "--help"],
            ["bound", "--dim=7=8"], ["--", "bound", "--dim", "7", "--format=csv"],
        ]) == "d37ef2bdf5f345ef696cf7c6bd7a346ff6632ffe9bbfd2f56c7918356f4c3ad6"

    def test_value_conversions(self, invoke):
        # each argv once: what int(), float() and a choices check accept
        # (underscores, spaces, a sign, full-width digits, inf and nan
        # spellings) and refuse (hex, a case or space off a choice), with
        # argparse's error line for each refusal
        bound = ["bound", "--dim", "7"]
        family = ["asymptotic", "--dmin", "10", "--dmax", "20"]
        assert self._hash(invoke, [
            ["bound", "--dim", "1_0"], ["bound", "--dim", " 7"], ["bound", "--dim", "+7"],
            ["bound", "--dim", "0x10"], ["bound", "--dim", "７"],
            ["bound", "--dim", "7 "], ["bound", "--dim", "-0"], ["bound", "--dim", "7.0"],
            ["bound", "--dim", ""], ["bound", "--dim", "1" * 5000],
            bound + ["--tolerance", "1e999"], bound + ["--tolerance", "-nan"],
            bound + ["--tolerance", "1_0e-9"], bound + ["--tolerance", " 1e-9\n"],
            bound + ["--tolerance", "0x1p-30"], bound + ["--tolerance", "１e-9"],
            family + ["--c", "infinity"], family + ["--c", "INF"],
            bound + ["--format", "JSON"], bound + ["--format", "json "],
            ["verify-vbound", "--dim", "2", "--shape", "Ball"],
            ["zeros", "--family", "proot ", "--dim", "4"],
            ["zeros", "--family", "proot", "--dim", "4"],
            ["zeros", "--nu", "0.5", "--family", "jzero"],
            ["Bound", "--dim", "7"], ["bound ", "--dim", "7"],
        ]) == "76545ca676b265a26c130d2ad5d0aeb5837ff80be65e70af08f492bc00c729b5"

    def test_bound_layer_refusals(self, invoke):
        # each argv once: every refusal of the ratio, minimizer and asymptotic
        # layers that the command line reaches, in the order they are checked
        bound = ["bound", "--dim", "7"]
        family = ["asymptotic", "--dmin", "10", "--dmax", "20"]
        assert self._hash(invoke, [
            bound + ["--ratio", "custom:1.5"], bound + ["--ratio", "custom:0"],
            bound + ["--ratio", "custom:nan"],
            bound + ["--tolerance", "1"], bound + ["--tolerance", "nan"],
            bound + ["--ratio", "custom:1.5", "--tolerance", "1"],
            ["bound", "--dim", "3", "--ratio", "custom:0.999999"],
            bound + ["--ratio", "custom:1e-300", "--vfunction", "vogt"],
            ["bound", "--dim", "1", "--ratio", "closed"],
            ["bound", "--dim", "300", "--ratio", "closed"],
            family + ["--c", "-1", "--alpha", "0"], family + ["--alpha", "-1"],
            family + ["--alpha", "nan"],
            ["asymptotic", "--dmin", "5", "--dmax", "9"],
            family + ["--c", "0.01", "--alpha", "-0.99"],
            ["table", "--dims", "2", "--tolerance", "1"],
        ]) == "7ba776e80d078a302faffc1cce50ac03ed9fbbe90427383505a4dd87be5be064"
