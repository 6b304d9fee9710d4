import contextlib
import json
import os
import subprocess
import sys
from io import StringIO

import pytest

import fracdim
from fracdim import PointCloud, io
from fracdim.__main__ import run
from fracdim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_cantor(self, capsys, tmp_path):
        out_path = tmp_path / "c7.json"
        code, out, _ = run_cli(capsys, "generate", "cantor", "--level", "7",
                               "--out", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["points"] == 128
        assert io.read_cloud(out_path).n == 128

    def test_polarized_depth1(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "generate", "polarized", "--depth", "1",
                               "--out", str(tmp_path / "p.json"))
        assert code == 0
        assert json.loads(out)["points"] == 3

    def test_invalid_level(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "generate", "cantor", "--level", "0",
                               "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "level" in err

    def test_missing_argument(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "generate", "cantor",
                               "--out", str(tmp_path / "x.json"))
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("generate", "cantor", "--level", "3"),
        ("generate", "from-spec", "--out", "o.json"),
        ("estimate", "c.json", "--r-max", "0.5"),
        ("info", "--metric", "bogus"),
    ])
    def test_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error: ")

    def test_from_spec(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "kind": "union", "offset": 2.0,
            "components": [{"kind": "dyadic-grid", "resolution": 3},
                           {"kind": "polarized", "depth": 1}]}))
        code, out, _ = run_cli(capsys, "generate", "from-spec",
                               "--spec", str(spec_path),
                               "--out", str(tmp_path / "u.json"))
        assert code == 0
        assert json.loads(out)["points"] == 9 + 3


class TestEstimate:
    def test_interval_plus_point(self, capsys, tmp_path):
        cloud_path = tmp_path / "ipp.json"
        run_cli(capsys, "generate", "interval-plus-point", "--resolution", "8",
                "--out", str(cloud_path))
        code, out, _ = run_cli(capsys, "estimate", str(cloud_path),
                               "--r-min", str(2.0 ** -6), "--r-max", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha_hat"] <= 0.05
        assert payload["window"]["ratio"] == 2.0

    def test_csv_table(self, capsys, tmp_path):
        cloud_path = tmp_path / "g.json"
        run_cli(capsys, "generate", "dyadic-grid", "--resolution", "5",
                "--out", str(cloud_path))
        csv_path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "estimate", str(cloud_path),
                               "--r-min", "0.125", "--r-max", "0.5",
                               "--csv", str(csv_path))
        assert code == 0
        assert csv_path.exists()

    # --r-max inf, which used to hang, is left to the constructor's test
    @pytest.mark.parametrize("flag, value", [
        ("--r-min", "inf"), ("--r-min", "nan"), ("--r-max", "nan"), ("--ratio", "inf"),
        ("--ratio", "nan"), ("--min-gap", "inf"), ("--min-gap", "nan")])
    def test_non_finite_window(self, capsys, tmp_path, flag, value):
        # --min-gap nan used to run the estimate and fail only at output
        cloud_path = tmp_path / "g.json"
        io.write_cloud(PointCloud([[0.0, 0.0], [0.5, 0.0]]), cloud_path)
        argv = {"--r-min": "0.1", "--r-max": "0.5", flag: value}
        code, out, err = run_cli(capsys, "estimate", str(cloud_path),
                                 *(x for item in argv.items() for x in item))
        assert (code, out) == (2, "")
        assert err == f"validation error: {flag[2:].replace('-', '_')} must be finite\n"

    def test_bad_window(self, capsys, tmp_path):
        cloud_path = tmp_path / "g.json"
        run_cli(capsys, "generate", "dyadic-grid", "--resolution", "4",
                "--out", str(cloud_path))
        code, _, err = run_cli(capsys, "estimate", str(cloud_path),
                               "--r-min", "0.5", "--r-max", "0.1")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "/nonexistent.json",
                               "--r-min", "0.1", "--r-max", "0.5")
        assert code == 5

    def test_singleton_estimates_zero(self, capsys, tmp_path):
        cloud_path = tmp_path / "one.json"
        io.write_cloud(PointCloud([[0.25]]), cloud_path)
        code, out, _ = run_cli(capsys, "estimate", str(cloud_path),
                               "--r-min", "0.01", "--r-max", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha_hat"] == 0.0 and payload["argmin"] is None

    def test_cantor_aligned_value(self, capsys, tmp_path):
        import math
        cloud_path = tmp_path / "c7.json"
        run_cli(capsys, "generate", "cantor", "--level", "7",
                "--out", str(cloud_path))
        code, out, _ = run_cli(capsys, "estimate", str(cloud_path),
                               "--r-min", str(3.0 ** -5), "--r-max", str(3.0 ** -1),
                               "--ratio", "3", "--min-gap", "3")
        assert code == 0
        got = json.loads(out)["alpha_hat"]
        assert abs(got - math.log(2) / math.log(3)) < 1e-6


class TestCertify:
    def test_grid_success(self, capsys, tmp_path):
        cloud_path = tmp_path / "g10.json"
        run_cli(capsys, "generate", "dyadic-grid", "--resolution", "10",
                "--out", str(cloud_path))
        cert_path = tmp_path / "cert.json"
        code, out, _ = run_cli(capsys, "certify", str(cloud_path),
                               "--k", "6", "--l", "16", "--depth", "2",
                               "--strong", "--out", str(cert_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == 2 / 3
        assert cert_path.exists()

    def test_absent_exit_3(self, capsys, tmp_path):
        cloud_path = tmp_path / "two.json"
        io.write_cloud(PointCloud([[0.0], [1.0]]), cloud_path)
        code, out, _ = run_cli(capsys, "certify", str(cloud_path),
                               "--k", "2", "--l", "2", "--depth", "2",
                               "--out", str(tmp_path / "c.json"))
        assert code == 3
        assert json.loads(out)["reason"] == "absent"

    def test_budget_exhausted_exit_3(self, capsys, tmp_path):
        cloud_path = tmp_path / "g10.json"
        run_cli(capsys, "generate", "dyadic-grid", "--resolution", "10",
                "--out", str(cloud_path))
        code, out, _ = run_cli(capsys, "--budget", "1", "certify", str(cloud_path),
                               "--k", "6", "--l", "16", "--depth", "2",
                               "--out", str(tmp_path / "c.json"))
        assert code == 3
        assert json.loads(out)["reason"] == "budget exhausted"

    @pytest.mark.parametrize("cloud", [
        {"metric": "euclidean", "points": [0, 1e-7, 1e-5, 1.01e-5]},
        {"metric": "l1", "points": [[0, 0], [1e-7, 0], [1e-5, 0], [1.01e-5, 0]]},
    ])
    def test_separation_below_tol(self, tmp_path, cloud):
        # level_separation(21, 2) = 2^-40 < tol: every pair is separated at
        # level 2, and the sorted 1-D pack walk must still move on
        cloud_path, cert_path = tmp_path / "c.json", tmp_path / "cert.json"
        cloud_path.write_text(json.dumps(cloud))
        proc = _run_module("certify", str(cloud_path), "--k", "21", "--l", "2", "--depth", "2",
                           "--out", str(cert_path), timeout=60)
        assert proc.returncode == 0 and json.loads(proc.stdout)["found"] is True
        assert _run_module("verify", str(cloud_path), str(cert_path)).returncode == 0

    def test_matrix_symmetric_within_tol(self, tmp_path):
        # d(1, 2) < 1 - tol <= d(2, 1), 1 being level 1's separation: the stored
        # matrix holds the larger, so the search and the verifier agree
        cloud_path, cert_path = tmp_path / "m.json", tmp_path / "cert.json"
        cloud_path.write_text(json.dumps({"metric": "matrix", "matrix": [
            [0, 0.5, 0.5], [0.5, 0, 0.9999999999985], [0.5, 0.999999999999, 0]]}))
        proc = _run_module("certify", str(cloud_path), "--k", "2", "--l", "2", "--depth", "1",
                           "--out", str(cert_path))
        assert proc.returncode == 0 and json.loads(proc.stdout)["found"] is True
        assert _run_module("verify", str(cloud_path), str(cert_path)).returncode == 0


class TestVerify:
    @pytest.fixture
    def certified(self, capsys, tmp_path):
        cloud_path = tmp_path / "g.json"
        run_cli(capsys, "generate", "dyadic-grid", "--resolution", "10",
                "--out", str(cloud_path))
        cert_path = tmp_path / "cert.json"
        run_cli(capsys, "certify", str(cloud_path), "--k", "6", "--l", "16",
                "--depth", "2", "--strong", "--out", str(cert_path))
        return cloud_path, cert_path

    def test_roundtrip_ok(self, capsys, certified):
        cloud_path, cert_path = certified
        code, out, _ = run_cli(capsys, "verify", str(cloud_path), str(cert_path),
                               "--scaling")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["scaling_check"] is True

    def test_tampered_index_lists_sep_violation(self, capsys, certified, tmp_path):
        cloud_path, cert_path = certified
        cert = json.loads(cert_path.read_text())
        cert["assign"]["1"] = cert["assign"]["0"]
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(cert))
        code, out, _ = run_cli(capsys, "verify", str(cloud_path), str(bad_path))
        assert code == 4
        kinds = {v["kind"] for v in json.loads(out)["violations"]}
        assert "sep" in kinds

    def test_strong_flag_flip_on_polarized(self, capsys, tmp_path):
        from fracdim import polarized_natural_family
        cloud, fam = polarized_natural_family(2)
        cloud_path = tmp_path / "p.json"
        io.write_cloud(cloud, cloud_path)
        strong = fam.to_dict()
        strong["strong"] = True
        cert_path = tmp_path / "strong.json"
        cert_path.write_text(json.dumps(strong))
        code, out, _ = run_cli(capsys, "verify", str(cloud_path), str(cert_path))
        assert code == 4
        violations = json.loads(out)["violations"]
        assert any(v["kind"] == "strong" and v["s"] == "" for v in violations)


class TestEmbed:
    def test_branch4_with_scan(self, capsys, tmp_path):
        tree_path = tmp_path / "t.json"
        tree_path.write_text(json.dumps([[0] * i for i in range(5)]))
        out_path = tmp_path / "emb.json"
        code, out, _ = run_cli(capsys, "embed", str(tree_path),
                               "--out", str(out_path), "--depth-scan")
        assert code == 0
        payload = json.loads(out)
        assert payload["points"] == 31
        assert payload["max_regular_depth"] == 4
        assert payload["scan_exhausted"] is False

    def test_root_only(self, capsys, tmp_path):
        tree_path = tmp_path / "t.json"
        tree_path.write_text("[[]]")
        code, out, _ = run_cli(capsys, "embed", str(tree_path),
                               "--out", str(tmp_path / "e.json"), "--depth-scan")
        assert code == 0
        payload = json.loads(out)
        assert payload["points"] == 1 and payload["max_regular_depth"] == 0

    def test_non_prefix_closed(self, capsys, tmp_path):
        tree_path = tmp_path / "t.json"
        tree_path.write_text("[[0],[0,0]]")
        code, _, err = run_cli(capsys, "embed", str(tree_path),
                               "--out", str(tmp_path / "e.json"))
        assert code == 2

    def test_deep_branch_is_a_validation_error(self, tmp_path):
        # refused before numpy is asked for the array: exit 2, one line, no traceback
        tree_path = tmp_path / "t.json"
        tree_path.write_text(json.dumps([[0] * i for i in range(41)]))
        out_path = tmp_path / "e.json"
        proc = _run_module("embed", str(tree_path), "--out", str(out_path), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("validation error: the embedding would hold")
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert not out_path.exists()


class TestInfoAndConfig:
    def test_info_cloud(self, capsys, tmp_path):
        cloud_path = tmp_path / "c.json"
        run_cli(capsys, "generate", "cantor", "--level", "5", "--out", str(cloud_path))
        code, out, _ = run_cli(capsys, "info", str(cloud_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["points"] == 32 and payload["metric"] == "euclidean"

    def test_info_config_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "info")
        assert code == 0
        payload = json.loads(out)
        assert payload["budget"] == 100000

    def test_config_file_and_flag_precedence(self, capsys, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"budget": 777}))
        monkeypatch.setenv("FRACDIM_CONFIG", str(cfg_path))
        code, out, _ = run_cli(capsys, "info")
        assert json.loads(out)["budget"] == 777
        code, out, _ = run_cli(capsys, "--budget", "55", "info")
        assert json.loads(out)["budget"] == 55

    def test_bad_config_key(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"budgett": 1}))
        code, _, err = run_cli(capsys, "--config", str(cfg_path), "info")
        assert code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "0", "tol must be positive"),
        ("--tol", "-1e-9", "tol must be positive"),
        ("--tol", "inf", "tol must be finite"),
        ("--exact-cutoff", "3", "exact_cutoff must be at least 4"),
        ("--budget", "0", "budget must be at least 1"),
    ])
    def test_config_value_refused(self, capsys, flag, value, message):
        code, _, err = run_cli(capsys, f"{flag}={value}", "info")
        assert code == 2
        assert err == f"validation error: {message}\n"

    @pytest.mark.parametrize("tol, asymmetry, code", [
        (None, 1e-10, 2), ("1e-9", 1e-10, 0),      # a looser tol accepts
        (None, 1e-13, 0), ("1e-14", 1e-13, 2),     # a tighter one refuses
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_tol_reaches_matrix_validation(self, capsys, tmp_path, tol, asymmetry, code,
                                           source):
        cloud_path = tmp_path / "m.json"
        cloud_path.write_text(json.dumps({"metric": "matrix",
                                          "matrix": [[0, 1], [1 + asymmetry, 0]]}))
        argv = []
        if tol is not None and source == "flag":
            argv = ["--tol", tol]
        elif tol is not None:
            (tmp_path / "cfg.json").write_text(json.dumps({"tol": float(tol)}))
            argv = ["--config", str(tmp_path / "cfg.json")]
        got, _, err = run_cli(capsys, *argv, "info", str(cloud_path))
        assert got == code
        assert err == ("" if code == 0 else "validation error: distance matrix must be symmetric\n")


class TestMetricFlag:
    """``--metric`` sets a CSV cloud's metric and must match a JSON cloud's own."""

    def _json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"metric": "euclidean", "points": [[0, 0], [3, 4]]}))
        return str(path)

    @pytest.mark.parametrize("extra", [(), ("--metric", "euclidean")])
    def test_json_with_its_own_metric(self, capsys, tmp_path, extra):
        code, out, _ = run_cli(capsys, "info", self._json(tmp_path), *extra)
        assert code == 0
        payload = json.loads(out)
        assert payload["metric"] == "euclidean" and payload["diameter"] == 5.0

    def test_json_with_another_metric(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "info", self._json(tmp_path), "--metric", "l1")
        assert code == 2 and out == ""
        assert err == ("validation error: the cloud file's metric is 'euclidean', "
                       "not the given 'l1'\n")

    @pytest.mark.parametrize("extra, metric, diameter", [
        ((), "euclidean", 5.0), (("--metric", "l1"), "l1", 7.0)])
    def test_csv_takes_the_metric(self, capsys, tmp_path, extra, metric, diameter):
        path = tmp_path / "c.csv"
        path.write_text("0,0\n3,4\n")
        code, out, _ = run_cli(capsys, "info", str(path), *extra)
        assert code == 0
        payload = json.loads(out)
        assert payload["metric"] == metric and payload["diameter"] == diameter

    @pytest.mark.parametrize("command", ["estimate", "certify", "verify"])
    def test_every_cloud_command_checks_it(self, capsys, tmp_path, command):
        rest = {"estimate": ["--r-min", "0.5", "--r-max", "4"],
                "certify": ["--k", "2", "--l", "2", "--depth", "1", "--out", "x.json"],
                "verify": ["cert.json"]}[command]
        code, _, err = run_cli(capsys, command, self._json(tmp_path), *rest, "--metric", "l1")
        assert code == 2
        assert "the cloud file's metric is 'euclidean', not the given 'l1'" in err


def _run_module(*argv, timeout=None):
    return subprocess.run([sys.executable, "-m", "fracdim", *argv],
                          capture_output=True, text=True, timeout=timeout)


class TestMalformedFiles:
    """Malformed spec, certificate, tree, cloud and config files are validation
    errors (exit 2)."""

    def _assert_validation_error(self, proc):
        assert proc.returncode == 2
        assert proc.stderr.startswith("validation error")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("spec", [
        {"kind": "cantor", "lvl": 3},
        [1, 2],
        {"kind": "union", "offset": 2.0, "components": [1, 2]},
        {"kind": "cantor", "level": "3"},
        {"kind": "cantor", "level": True},
        {"level": 3},
        {"kind": "union", "offset": 2.0, "components": [{"kind": "cantor", "level": 2}]},
        {"kind": "cascade", "base": [], "center": 0, "epsilon": 0.3, "depth": 2},
    ])
    def test_generator_spec(self, tmp_path, spec):
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(spec))
        self._assert_validation_error(_run_module(
            "generate", "from-spec", "--spec", str(spec_path), "--out", str(tmp_path / "o.json")))

    @pytest.mark.parametrize("cert", [
        {"k": 2},
        [],
        {"k": 2, "l": 2, "depth": 0, "strong": False, "assign": {"": "0"}},
        {"k": 2, "l": 2, "depth": 0, "strong": 0, "assign": {"": 0}},
        {"k": 2.0, "l": 2, "depth": 0, "strong": False, "assign": {"": 0}},
        {"k": 2, "l": 2, "depth": 0, "strong": False, "assign": {"": 0}, "extra": 1},
    ])
    def test_certificate(self, tmp_path, cert):
        self._assert_validation_error(self._verify(tmp_path, cert))

    @pytest.mark.parametrize("label", ["x", "0.", "01", " 1"])
    def test_certificate_label(self, tmp_path, label):
        proc = self._verify(tmp_path, {"k": 2, "l": 2, "depth": 0, "strong": False,
                                       "assign": {label: 0}})
        self._assert_validation_error(proc)
        assert f"invalid certificate label {label!r}" in proc.stderr

    def _verify(self, tmp_path, cert):
        cloud_path = tmp_path / "g.json"
        io.write_cloud(PointCloud([0.0, 1.0]), cloud_path)
        cert_path = tmp_path / "c.json"
        cert_path.write_text(json.dumps(cert))
        return _run_module("verify", str(cloud_path), str(cert_path))

    @pytest.mark.parametrize("nodes", [[[], [0.7]], [[], [True]], [[], "0"]])
    def test_tree(self, tmp_path, nodes):
        tree_path = tmp_path / "t.json"
        tree_path.write_text(json.dumps(nodes))
        self._assert_validation_error(_run_module(
            "embed", str(tree_path), "--out", str(tmp_path / "o.json")))

    @pytest.mark.parametrize("cloud", [
        {"metric": "euclidean", "points": [["0.5"], [True], [2]]},
        {"metric": "euclidean", "points": [0.5, True]},
        {"metric": "euclidean", "points": [[[0.0]], [[1.0]]]},
        {"metric": "euclidean", "points": [[10 ** 400], [0]]},
        {"metric": "euclidean", "points": [[]]},
        {"metric": "matrix", "matrix": [[0, "1"], ["1", 0]]},
        {"metric": "euclidean", "pionts": [[0.0], [1.0]]},
        {"metric": "matrix", "points": [[0.0], [1.0]]},
        {"metric": "euclidean", "points": {"0": 1.0}},
        {"metric": 1, "points": [[0.0], [1.0]]},
        {"points": [[0.0], [1.0]]},
        [[0.0], [1.0]],
    ])
    def test_cloud(self, tmp_path, cloud):
        cloud_path = tmp_path / "c.json"
        cloud_path.write_text(json.dumps(cloud))
        self._assert_validation_error(_run_module("info", str(cloud_path)))

    @pytest.mark.parametrize("cloud, rule", [
        ({"metric": "euclidean", "points": [0, [1]]},
         "cloud field 'points' must hold only numbers or only rows of one length"),
        ({"metric": "euclidean", "points": [[0, 1], [1]]},
         "cloud field 'points' must hold only numbers or only rows of one length"),
        ({"metric": "matrix", "matrix": [[0, 1], [1]]},
         "cloud field 'matrix' must hold rows of one length"),
    ])
    def test_cloud_row_shape(self, tmp_path, cloud, rule):
        cloud_path = tmp_path / "c.json"
        cloud_path.write_text(json.dumps(cloud))
        proc = _run_module("info", str(cloud_path))
        self._assert_validation_error(proc)
        assert rule in proc.stderr

    def test_csv_ragged_rows(self, tmp_path):
        cloud_path = tmp_path / "c.csv"
        cloud_path.write_text("0,1\n2\n")
        proc = _run_module("info", str(cloud_path))
        self._assert_validation_error(proc)
        assert "CSV rows must all have the first row's 2 values; line 2 has 1" in proc.stderr

    @pytest.mark.parametrize("cell", ["x", "nan", "inf", "-inf", "", "1_000", "infinity",
                                      "0x10", "1e999", "1e5.5", "--1", "\u0661"])
    def test_csv_cell_not_a_finite_number(self, tmp_path, cell):
        cloud_path = tmp_path / "c.csv"
        cloud_path.write_text(f"0,1\n2,{cell}\n", encoding="utf-8")
        proc = _run_module("info", str(cloud_path))
        self._assert_validation_error(proc)
        assert proc.stderr == ("validation error: CSV cells must be finite numbers; "
                               f"line 2 has '2,{cell}'\n")

    def test_csv_plain_decimals(self, tmp_path):
        cloud_path = tmp_path / "c.csv"
        cloud_path.write_text("0,1\n -1.5e3 ,+.5\n7.,1E-2\n")
        proc = _run_module("info", str(cloud_path))
        assert proc.returncode == 0 and json.loads(proc.stdout)["points"] == 3

    @pytest.mark.parametrize("cloud, points", [
        ({"metric": "euclidean", "points": [0.5, 1, 2]}, 3),
        ({"metric": "l1", "points": [[0, 1.5], [1, 2]]}, 2),
        ({"metric": "matrix", "matrix": [[0, 1], [1.0, 0]]}, 2),
    ])
    def test_valid_cloud(self, tmp_path, cloud, points):
        cloud_path = tmp_path / "c.json"
        cloud_path.write_text(json.dumps(cloud))
        proc = _run_module("info", str(cloud_path))
        assert proc.returncode == 0 and json.loads(proc.stdout)["points"] == points

    def test_config_value(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tol": "1e-9"}))
        self._assert_validation_error(_run_module("--config", str(cfg_path), "info"))

    def test_config_infinite_tol(self, tmp_path):
        # 1e999 parses as inf; it used to give alpha_hat 0.0 and exit 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"tol": 1e999}')
        proc = _run_module("--config", str(cfg_path), "info")
        self._assert_validation_error(proc)
        assert "tol must be finite" in proc.stderr

    def test_config_removed_output_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"output": "out.json"}))
        proc = _run_module("--config", str(cfg_path), "info")
        self._assert_validation_error(proc)
        assert "unknown config keys: ['output']" in proc.stderr

    def test_missing_generator_flag_names_the_spec_field(self, tmp_path):
        proc = _run_module("generate", "dyadic-grid", "--out", str(tmp_path / "o.json"))
        self._assert_validation_error(proc)
        assert proc.stderr == "validation error: dyadic-grid requires resolution\n"


class TestDeterminismAndEntryPoint:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        cloud_path = tmp_path / "g.json"
        run_cli(capsys, "generate", "dyadic-grid", "--resolution", "6",
                "--out", str(cloud_path))
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "estimate", str(cloud_path),
                                   "--r-min", "0.03125", "--r-max", "0.5")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_module_entry_point(self, tmp_path):
        out_path = tmp_path / "c.json"
        proc = subprocess.run(
            [sys.executable, "-m", "fracdim", "generate", "cantor",
             "--level", "3", "--out", str(out_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["points"] == 8

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_cli_start_caps_blas_threads(self, tmp_path, preset):
        # `python -m fracdim` sets OPENBLAS_NUM_THREADS=1 before numpy loads, so
        # the process runs one thread; a value the user has set wins
        cloud_path = tmp_path / "c.json"
        cloud_path.write_text('{"metric": "euclidean", "points": [0, 1, 3]}')
        script = (
            "import json, os, runpy, sys\n"
            f"sys.argv = ['fracdim', 'info', {str(cloud_path)!r}]\n"
            "try:\n"
            "    runpy.run_module('fracdim', run_name='__main__')\n"
            "except SystemExit as stop:\n"
            "    code = stop.code\n"
            "tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else None\n"
            "print(json.dumps([code, tasks and len(tasks), os.environ.get('OPENBLAS_NUM_THREADS')]))\n")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, threads, blas = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert blas == (preset or "1")
        if preset is None and threads is not None:
            assert threads == 1

    def test_commands_load_no_numpy_ma(self, capsys, tmp_path):
        # numpy.ma costs 15 ms and 0.5 MB to import; no command needs it
        for argv in (["generate", "cantor", "--level", "4", "--out", "c.json"],
                     ["generate", "polarized", "--depth", "3", "--out", "p.json"]):
            assert main([*argv[:-1], str(tmp_path / argv[-1])]) == 0
        (tmp_path / "plane.json").write_text(
            '{"metric": "euclidean", "points": [[0, 0], [0.5, 0], [0, 0.25], [1, 1], [0.75, 0.5]]}')
        (tmp_path / "tree.json").write_text(json.dumps([[0] * i for i in range(3)]))
        capsys.readouterr()
        cloud, plane, polarized, cert, tree = (str(tmp_path / name) for name in (
            "c.json", "plane.json", "p.json", "cert.json", "tree.json"))
        jobs = [["info", cloud],
                ["estimate", cloud, "--r-min", "0.0625", "--r-max", "0.5"],
                ["estimate", plane, "--r-min", "0.125", "--r-max", "1", "--mode", "greedy"],
                ["certify", polarized, "--k", "2", "--l", "2", "--depth", "3", "--out", cert],
                ["verify", polarized, cert, "--scaling"],
                ["embed", tree, "--out", str(tmp_path / "t.json"), "--depth-scan"]]
        script = (
            "import json, runpy, sys\n"
            "codes = []\n"
            f"for argv in {jobs!r}:\n"
            "    sys.argv = ['fracdim', *argv]\n"
            "    try:\n"
            "        runpy.run_module('fracdim', run_name='__main__')\n"
            "    except SystemExit as stop:\n"
            "        codes.append(stop.code)\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]), file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stderr.splitlines()[-1])
        assert codes == [0] * len(jobs)
        assert not loaded

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_is_an_io_error(self, capsys, tmp_path, unbuffered):
        # the reader goes away after 20 bytes of a report over 1 MB
        cloud_path = tmp_path / "c.json"
        main(["generate", "cantor", "--level", "10", "--out", str(cloud_path)])
        capsys.readouterr()
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "fracdim", "estimate", str(cloud_path),
             "--r-min", "0.015625", "--r-max", "0.5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 5, err
        assert head == b'{\n  "alpha_hat": 0.5'
        assert err == "I/O error: [Errno 32] Broken pipe\n"
        # the same report, read whole, is over 1 MB
        assert main(["estimate", str(cloud_path), "--r-min", "0.015625", "--r-max", "0.5"]) == 0
        assert len(capsys.readouterr().out) > 1_000_000

    @pytest.mark.parametrize("argv, code", [
        (["generate", "cantor", "--level", "3", "--out", "c.json"], 0),
        (["info", "absent.json"], 5),   # an I/O error
    ])
    def test_console_script_entry(self, monkeypatch, capsys, tmp_path, argv, code):
        # the function the packaged ``fracdim`` script runs: main's code as the exit status
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["fracdim", *argv])
        monkeypatch.setattr(os, "environ", dict(os.environ))   # run() sets BLAS variables
        with pytest.raises(SystemExit) as exit_info:
            run()
        assert exit_info.value.code == code
        out = capsys.readouterr().out
        assert (json.loads(out)["points"] == 8) if code == 0 else out == ""

    def test_malformed_json_is_io_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "info", str(bad))
        assert code == 5


class TestInProcessReplay:
    """Jobs run through ``main`` under ``contextlib.redirect_stdout``, as an
    in-process caller (perfbench's traced runs) captures them, which
    ``capsys`` cannot tell apart from writes that go around ``sys.stdout``."""

    JOBS = [
        ["generate", "polarized", "--depth", "4", "--out", "p.json"],
        ["generate", "cantor", "--level", "5", "--out", "c.json"],
        ["info"],
        ["info", "p.json"],
        ["estimate", "c.json", "--r-min", "0.015625", "--r-max", "0.5", "--csv", "t.csv"],
        ["estimate", "plane.json", "--r-min", "0.125", "--r-max", "1", "--mode", "greedy"],
        ["certify", "p.json", "--k", "2", "--l", "2", "--depth", "4", "--out", "cert.json"],
        ["certify", "p.json", "--k", "2", "--l", "2", "--depth", "4", "--strong",
         "--out", "strong.json"],
        ["verify", "p.json", "cert.json", "--scaling"],
        ["embed", "tree.json", "--out", "t.json", "--depth-scan"],
    ]

    def test_matches_the_module_byte_for_byte(self, capfd, monkeypatch, tmp_path):
        here, there = tmp_path / "in_process", tmp_path / "module"
        for work in (here, there):
            work.mkdir()
            (work / "plane.json").write_text('{"metric": "euclidean", "points": '
                                             '[[0, 0], [0.5, 0], [0, 0.25], [1, 1], [0.75, 0.5]]}')
            (work / "tree.json").write_text("[[], [0], [1], [0, 0], [0, 1], [1, 0], [1, 1]]")
        monkeypatch.chdir(here)
        # the module runs from another directory, so it finds the package by an absolute path
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fracdim.__file__)))
        codes = []
        for argv in self.JOBS:
            out, err = StringIO(), StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            assert capfd.readouterr() == ("", ""), argv
            proc = subprocess.run([sys.executable, "-m", "fracdim", *argv], cwd=there, env=env,
                                  capture_output=True, timeout=120)
            assert (code, out.getvalue().encode(), err.getvalue().encode()) == (
                proc.returncode, proc.stdout, proc.stderr), argv
            codes.append(code)
        assert codes == [0] * 7 + [3, 0, 0]
        written = sorted(path.name for path in here.iterdir())
        assert written == sorted(path.name for path in there.iterdir())
        assert {"cert.json", "t.csv", "t.json"} <= set(written)
        for name in written:
            assert (here / name).read_bytes() == (there / name).read_bytes(), name
