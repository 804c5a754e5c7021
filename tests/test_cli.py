"""End-to-end tests for the command line interface."""

import json
import math
import subprocess
import sys

import pytest

from closurelab.chains import Word
from closurelab.cli import main
from closurelab.search import DefectGrid

# inner circle 1e-7 from the outer one: the chain dies at index 2
DEAD_ARGS = ["--R", "1", "--r", "0.5", "--d", "0.4999999",
             "--word", "ccs", "--theta0", "0"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def usage_error(capsys, *argv):
    """The report of a command line that argparse rejects with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["flags"] == {"valid_input": False}
    assert rep["verified"] is False
    return rep


class TestVerifyCommand:
    def test_locus_annulus_verifies(self, capsys):
        code, rep = run_cli(capsys, "verify", "t1",
                            "--R", "3", "--r", "1", "--d", "0")
        assert code == 0
        assert rep["verified"] is True
        assert rep["command"] == "verify t1"

    def test_off_locus_annulus_falsifies(self, capsys):
        code, rep = run_cli(capsys, "verify", "t1",
                            "--R", "3", "--r", "1", "--d", "0.5")
        assert code == 1
        assert rep["checks"]["corollary_residual"]["value"] == 0.25
        assert rep["checks"]["chain_defect"]["passed"] is False

    def test_every_statement_verifies_on_its_scene(self, capsys):
        scenes = {
            "t2": ["--R", "3.5", "--r", "1", "--d", "1.5"],
            "t3": ["--R", "1", "--r", "0.25", "--d", "0.3"],
            "t4": ["--R", "1", "--r", "0.25", "--d", "0.3"],
            "t5": ["--R", "1", "--r", "0.25", "--d", "0.3"],
            "t6": [],
            "sangaku": ["--R", "3", "--r", "1", "--d", "0"],
        }
        for theorem, flags in scenes.items():
            code, rep = run_cli(capsys, "verify", theorem, *flags)
            assert code == 0, theorem
            assert rep["verified"] is True, theorem

    def test_unknown_statement_rejected(self, capsys):
        rep = usage_error(capsys, "verify", "t9")
        assert rep["command"] == "verify"
        assert "invalid choice: 't9'" in rep["details"]["error"]

    def test_invalid_annulus_is_a_usage_error(self, capsys):
        code, rep = run_cli(capsys, "verify", "t1",
                            "--R", "1", "--r", "2", "--d", "0")
        assert code == 2
        assert rep["flags"]["valid_input"] is False
        assert "error" in rep["details"]


class TestChainCommand:
    def test_closed_chain(self, capsys):
        code, rep = run_cli(capsys, "chain", "--R", "3", "--r", "1",
                            "--d", "0", "--word", "cscs")
        assert code == 0
        assert rep["flags"]["chain_closed"] is True
        assert rep["details"]["elements"] == 5
        assert rep["checks"]["chain_defect"]["value"] < 1e-10

    def test_open_chain(self, capsys):
        code, rep = run_cli(capsys, "chain", "--R", "4", "--r", "1",
                            "--d", "0", "--word", "cscs")
        assert code == 1
        assert rep["flags"]["chain_closed"] is False
        assert rep["details"]["defect"] == \
            rep["checks"]["chain_defect"]["value"]

    def test_dead_end_chain(self, capsys):
        code, rep = run_cli(capsys, "chain", *DEAD_ARGS)
        assert code == 1
        assert rep["flags"]["chain_closed"] is False
        assert rep["details"]["failed_index"] == 2
        assert rep["details"]["elements_built"] == 2
        assert rep["details"]["error"].startswith("DeadEndError")
        assert "checks" in rep and rep["checks"] == {}

    def test_thin_annulus_chain_completes(self, capsys):
        # both circle neighbours of a thin annulus are found
        code, rep = run_cli(capsys, "chain", "--R", "1", "--r", "0.97",
                            "--d", "0", "--word", "ccc", "--theta0", "0.3")
        assert code == 1
        assert rep["details"]["elements"] == 4
        assert rep["details"]["defect"] == pytest.approx(
            3.0 * 2.0 * math.asin(0.03 / 1.97), abs=1e-14)

    def test_bad_word_is_a_usage_error(self, capsys):
        code, rep = run_cli(capsys, "chain", "--R", "3", "--r", "1",
                            "--d", "0", "--word", "cxcs")
        assert code == 2
        assert rep["flags"]["valid_input"] is False


class TestEdgeValues:
    """Every input yields exactly one strict JSON report and an exit code
    from the README table."""

    @pytest.mark.parametrize("argv,want", [
        (["verify", "t1", "--R", "nan"], 2),
        (["verify", "t1", "--R", "inf"], 2),
        (["chain", "--theta0", "nan"], 2),
        (["verify", "sangaku", "--tol", "nan"], 2),
        (["verify", "t6", "--tol", "inf"], 2),
        (["verify", "t1", "--tol=-inf"], 2),
        (["verify", "t1", "--thetas", "0"], 2),
        (["verify", "t1", "--thetas=-5"], 2),
        (["chain", "--R", "1e308", "--r", "1", "--d", "0"], 2),
        (["chain", "--R", "1e-300", "--r", "1e-301", "--d", "0"], 2),
        (["chain", "--R", "1e100", "--r", "1e-250", "--d", "0"], 2),
        # a dead seed: the check value is inf and fails
        (["verify", "t1", "--R", "1", "--r", "0.5", "--d", "0.4999999"], 1),
    ])
    def test_one_report_and_a_table_exit_code(self, capsys, argv, want):
        code = main(argv)
        out = capsys.readouterr().out

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        rep, end = json.JSONDecoder(parse_constant=reject).raw_decode(out)
        assert out[end:].strip() == ""
        assert code == want
        assert rep["verified"] is False

    def test_non_finite_check_value_is_written_as_a_string(self, capsys):
        code, rep = run_cli(capsys, "verify", "t1", "--R", "1", "--r", "0.5",
                            "--d", "0.4999999")
        check = rep["checks"]["chain_defect"]
        assert check["value"] == "inf"
        assert check["passed"] is False


class TestScanCommand:
    def test_csv_identical_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        reports = []
        for path in paths:
            code, rep = run_cli(capsys, "scan", "--word", "cscs",
                                "--nr", "16", "--nd", "16", "--out", str(path))
            assert code == 0
            reports.append(rep)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # stdout reports agree once the run-dependent timing is dropped
        for rep in reports:
            del rep["timing_s"]
        assert reports[0] == reports[1]

    def test_csv_round_trips(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, rep = run_cli(capsys, "scan", "--word", "cscs",
                            "--nr", "16", "--nd", "16", "--out", str(path))
        assert code == 0
        assert rep["details"]["shape"] == [16, 16]
        assert rep["details"]["ok_cells"] + \
            rep["details"]["marked_cells"] == 256
        grid = DefectGrid.from_csv(str(path), Word("cscs"))
        assert grid.defect.shape == (16, 16)
        rewritten = tmp_path / "again.csv"
        grid.to_csv(str(rewritten))
        assert rewritten.read_bytes() == path.read_bytes()

    def test_out_flag_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--word", "cscs", "--nr", "16", "--nd", "16"])
        assert exc.value.code == 2

    def test_bad_word_is_a_usage_error(self, capsys, tmp_path):
        code, rep = run_cli(capsys, "scan", "--word", "cxcs",
                            "--nr", "16", "--nd", "16",
                            "--out", str(tmp_path / "grid.csv"))
        assert code == 2


class TestSearchCommand:
    def test_single_length_sweep(self, capsys):
        code, rep = run_cli(capsys, "search", "--max-len", "3",
                            "--nr", "16", "--nd", "16", "--thetas", "8")
        assert code == 0
        assert rep["details"]["words_scanned"] == 4
        assert rep["details"]["certified"] == ["ccc", "sss"]
        for entry in rep["details"]["words"]:
            assert entry["outcome"] in ("certified", "not-certified",
                                        "no-locus")

    def test_power_families_certify(self, capsys):
        code, rep = run_cli(capsys, "search", "--max-len", "4",
                            "--nr", "16", "--nd", "16", "--thetas", "8")
        assert code == 0
        assert rep["details"]["words_scanned"] == 10
        assert rep["details"]["certified"] == \
            ["ccc", "sss", "cccc", "cscs", "ssss"]

    def test_artifact_written(self, capsys, tmp_path):
        path = tmp_path / "survey.json"
        code, rep = run_cli(capsys, "search", "--max-len", "3",
                            "--nr", "16", "--nd", "16", "--thetas", "8",
                            "--out", str(path))
        assert code == 0
        artifact = json.loads(path.read_text(encoding="utf-8"))
        assert [w["word"] for w in artifact["words"]] == \
            [w["word"] for w in rep["details"]["words"]]


class TestFitCommand:
    def test_pair_word_relation(self, capsys):
        code, rep = run_cli(capsys, "fit", "--word", "cscs",
                            "--nr", "32", "--nd", "32")
        assert code == 0
        fit = rep["details"]["fit"]
        coeff = dict(zip(fit["terms"], fit["coefficients"]))
        lead = coeff["R^2"]
        assert coeff["R*r"] / lead == pytest.approx(-2.0, abs=1e-6)
        assert coeff["r^2"] / lead == pytest.approx(-3.0, abs=1e-6)
        assert coeff["d^2"] / lead == pytest.approx(-1.0, abs=1e-6)
        assert fit["max_residual"] < 1e-6
        assert fit["nullspace_dim"] == 1
        assert rep["details"]["locus_points"] > 0

    def test_artifact_written(self, capsys, tmp_path):
        path = tmp_path / "relation.json"
        code, rep = run_cli(capsys, "fit", "--word", "cscs",
                            "--nr", "32", "--nd", "32", "--out", str(path))
        assert code == 0
        artifact = json.loads(path.read_text(encoding="utf-8"))
        assert artifact["relation"] == rep["details"]["fit"]["relation"]
        assert artifact["locus"]["word"] == "cscs"


class TestRenderCommand:
    def test_output_is_reproducible(self, capsys, tmp_path):
        paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for path in paths:
            code, rep = run_cli(capsys, "render", "--R", "3", "--r", "1",
                                "--d", "0", "--word", "cscs",
                                "--out", str(path))
            assert code == 0
            assert rep["flags"]["render_complete"] is True
            assert rep["details"]["svg_bytes"] == path.stat().st_size
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_gamma_overlay_for_eccentric_scene(self, capsys, tmp_path):
        path = tmp_path / "gamma.svg"
        code, rep = run_cli(capsys, "render", "--R", "1", "--r", "0.25",
                            "--d", "0.3", "--word", "cscs",
                            "--out", str(path))
        assert code == 0
        assert rep["details"]["gamma_drawn"] is True
        assert 'class="gamma"' in path.read_text(encoding="utf-8")

    def test_partial_scene_exits_nonzero(self, capsys, tmp_path):
        path = tmp_path / "dead.svg"
        code, rep = run_cli(capsys, "render", *DEAD_ARGS,
                            "--out", str(path))
        assert code == 1
        assert rep["flags"]["render_complete"] is False
        assert "status=partial" in path.read_text(encoding="utf-8")

    def test_unwritable_path_is_an_io_error(self, capsys, tmp_path):
        code, rep = run_cli(capsys, "render", "--R", "3", "--r", "1",
                            "--d", "0", "--word", "cscs",
                            "--out", str(tmp_path / "missing" / "x.svg"))
        assert code == 3


class TestConfigPrecedence:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_file_overrides_defaults(self, capsys, tmp_path):
        path = self.write_config(tmp_path, {"R": 4.0})
        code, rep = run_cli(capsys, "chain", "--config", path,
                            "--r", "1", "--d", "0", "--word", "cscs")
        assert code == 1
        assert rep["inputs"]["R"] == 4.0

    def test_flags_override_file(self, capsys, tmp_path):
        path = self.write_config(tmp_path, {"R": 4.0, "word": "cscs"})
        code, rep = run_cli(capsys, "chain", "--config", path,
                            "--R", "3", "--r", "1", "--d", "0")
        assert code == 0
        assert rep["inputs"]["R"] == 3.0
        assert rep["inputs"]["word"] == "cscs"

    def test_unknown_key_is_a_usage_error(self, capsys, tmp_path):
        path = self.write_config(tmp_path, {"radius": 4.0})
        code, rep = run_cli(capsys, "chain", "--config", path)
        assert code == 2
        assert "radius" in rep["details"]["error"]

    def test_malformed_json_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{", encoding="utf-8")
        code, rep = run_cli(capsys, "chain", "--config", str(path))
        assert code == 2

    def test_missing_file_is_an_io_error(self, capsys, tmp_path):
        code, rep = run_cli(capsys, "chain", "--config",
                            str(tmp_path / "absent.json"))
        assert code == 3


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "closurelab" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,command", [
        (["verify", "t1", "--R"], "verify"),
        (["chain", "--R", "abc"], "chain"),
        ([], "closurelab"),
        # there is no --workers flag
        (["scan", "--word", "cscs", "--workers", "2", "--out", "g.csv"],
         "scan"),
        (["verify", "t1", "--nr", "8"], "verify"),
    ])
    def test_usage_error_prints_a_report(self, capsys, argv, command):
        assert usage_error(capsys, *argv)["command"] == command

    def test_help_is_not_a_report(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: closurelab verify")

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "closurelab.cli", "verify", "t1",
             "--R", "3", "--r", "1", "--d", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["verified"] is True
