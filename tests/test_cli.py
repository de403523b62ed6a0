"""CLI surface: formats, exit codes, schema conformance, reproducibility."""

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

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hotspots.cli as cli_mod
import hotspots.zeros as zeros_mod
from hotspots import AccuracyError, TailEstimate, VKind, log_v, optimal_a, bound_value
from hotspots._format import canonical_json

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
        monkeypatch.setattr(zeros_mod, "_exact_sign", lambda nu, z, family: 0)
        res = invoke(["zeros", "--nu", "1"])
        assert res.exit_code == 4
        assert "no exact sign change" in res.stderr


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
        grid = tuple(float(t) for t in np.linspace(0.0, 2.0, 6))
        fake = TailEstimate(t_grid=grid, survival=(1.0,) * 6,
                            ci_low=(0.99,) * 6, ci_high=(1.0,) * 6,
                            n_paths=1000, config_fingerprint="0" * 64)
        monkeypatch.setattr(cli_mod, "estimate_survival", lambda cfg, tau: fake)
        res = invoke(SMALL_MC)
        assert res.exit_code == 5

    def test_accuracy_failure_exit_four(self, invoke, monkeypatch):
        def boom(cfg):
            raise AccuracyError("paths outlived the simulation horizon")

        monkeypatch.setattr(cli_mod, "sample_exit_times", boom)
        res = invoke(SMALL_MC)
        assert res.exit_code == 4
        assert "accuracy" in res.output

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
        # the far faces' before * after / dt overflows to inf, which the
        # exponent clamp already handles: no RuntimeWarning may reach stderr
        res = invoke(["verify-vbound", "--shape", "box", "--sides", "1e300,1", "--dim",
                      "2", "--dt", "1e-3", "--paths", "10"])
        assert res.exit_code == 0, res.exception
        assert res.stderr == ""

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
        # the CLI and sample_exit_times both need lambda; one root search serves
        import hotspots.montecarlo as mc
        real = mc.first_bessel_zero
        orders = []

        def counting(nu):
            orders.append(nu)
            return real(nu)

        monkeypatch.setattr(mc, "first_bessel_zero", counting)
        mc.principal_eigenvalue.cache_clear()
        res = invoke(SMALL_MC)
        assert res.exit_code == 0, res.output
        assert orders == [0.0]

    def test_oversized_grid_rejected_before_it_is_built(self, invoke, monkeypatch):
        # a billion grid points cannot fit any dt the run uses; the check must
        # come before default_t_grid allocates them
        built = []
        monkeypatch.setattr(cli_mod, "default_t_grid",
                            lambda lam, points: built.append(points))
        for extra in ([], ["--dt", "-1"], ["--dt", "nan"]):
            for count in ("1000000000", _HUGE):
                res = invoke(["verify-vbound", "--dim", "2", "--paths",
                              "100", "--grid-points", count] + extra)
                assert res.exit_code == 3, (count, extra, res.output)
        assert built == []

    def test_tiny_dt_exit_three_before_sampling(self, invoke, monkeypatch):
        # dt = 1e-9 on the unit disc needs about 1.4e10 steps: refused, not run
        import hotspots.montecarlo as mc
        runs = []
        monkeypatch.setattr(mc, "_pool_exit_times", lambda *a: runs.append(a))
        res = invoke(["verify-vbound", "--dim", "2", "--paths", "10",
                      "--dt", "1e-9"])
        assert res.exit_code == 3, res.output
        assert runs == []

    @pytest.mark.parametrize("argv, line", [
        (["--epsilon", "1.5"], "error: epsilon must lie in (0, 1), got 1.5\n"),
        (["--epsilon", "0"], "error: epsilon must lie in (0, 1), got 0.0\n"),
        (["--dim", "1"], "error: dimension must be an integer >= 2, got 1\n"),
        (["--vfunction", "improved", "--dim", "201", "--dt", "1e-6"],
         "error: improved Vogt V supports d <= 200, got 201\n"),
    ], ids=["epsilon_above_one", "epsilon_zero", "dim_one", "improved_dim_201"])
    def test_unusable_v_bound_exit_three_before_sampling(self, invoke, monkeypatch,
                                                         argv, line):
        # check_vbound runs after the simulation; a bound it cannot evaluate
        # must be refused before any path is drawn
        import hotspots.montecarlo as mc
        runs = []
        monkeypatch.setattr(mc, "_pool_exit_times", lambda *a: runs.append(a))
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


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second of cold start and nothing needs it
    src = str(pathlib.Path(cli_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, hotspots.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats'))); "
            "print('click' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    stats, click = out.splitlines()
    assert stats.strip() == "[]"
    assert click == "False"  # the parser is stdlib argparse


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


# How argv is read.  A value option takes the next word even when it starts
# with "-" (argparse alone would read -1e-05 or -inf as an unknown option and
# exit 2), so those runs reach the command, which refuses the value with exit
# 3.  Options are never abbreviated and the last value of an option counts.
# --help acts wherever it stands, but not past an unknown option or a flag
# given a value.  "--" may come before the command name or end the argv, and
# "--" as a value is refused (argparse 3.11 would pass an empty list on).
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
]


@pytest.mark.parametrize("argv, code", _PARSE_RESULTS,
                         ids=[" ".join(argv) or "no-arguments" for argv, _ in _PARSE_RESULTS])
def test_parse_results(invoke, argv, code):
    assert invoke(argv).exit_code == code


# ---------------------------------------------------------------- exit codes

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}

_HUGE = "1" + "0" * 400  # an int no float can hold
_ODD = ["x", "", "nan", "inf", "-inf", "1e-300", "1e308", "0", "-0", "-1", "1", "2", _HUGE]
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
    return st.one_of(st.sampled_from(["vogt", "improved", "custom", "nope"]),
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
    # principal eigenvalue underflows to 0 or overflows
    extreme = ["1e300", "1e-300"]
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
    bridge = st.lists(st.sampled_from(["--bridge", "--no-bridge"]), max_size=1)
    verify = st.tuples(sizes, verify, bridge).map(lambda parts: sum(parts, []))
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
