"""Tests for run configuration and structured result reports."""

import json
import math

import pytest

from closurelab.chains import Word
from closurelab.errors import DomainError
from closurelab.report import (
    Report,
    SceneConfig,
    certification_payload,
    diagnostic_report,
    locus_payload,
    relation_payload,
)
from closurelab.search import CertificationReport, Counterexample, \
    RelationFit, ZeroLocus


class TestSceneConfig:
    def test_defaults(self):
        cfg = SceneConfig()
        assert (cfg.R, cfg.r, cfg.d) == (3.0, 1.0, 0.0)
        assert cfg.word == "cscs"
        assert cfg.theta0 == 0.0
        assert (cfg.nr, cfg.nd, cfg.thetas) == (64, 64, 64)
        assert cfg.tol is None
        assert (cfg.degree, cfg.max_len) == (2, 4)
        assert len(SceneConfig.field_names()) == 11

    def test_load_without_sources_is_default(self):
        assert SceneConfig.load() == SceneConfig()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"R": 2.0, "word": "sss", "nr": 32}))
        cfg = SceneConfig.load(str(path))
        assert cfg.R == 2.0
        assert cfg.word == "sss"
        assert cfg.nr == 32
        assert cfg.r == 1.0

    def test_flag_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"R": 2.0, "d": 0.5}))
        cfg = SceneConfig.load(str(path), {"d": 0.25, "R": None})
        assert cfg.R == 2.0
        assert cfg.d == 0.25

    def test_none_overrides_are_unset(self):
        cfg = SceneConfig.load(None, {"R": None, "word": None})
        assert cfg == SceneConfig()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        for key in ("radius", "workers"):
            path.write_text(json.dumps({key: 2}))
            with pytest.raises(DomainError):
                SceneConfig.load(str(path))
            with pytest.raises(DomainError):
                SceneConfig.load(None, {key: 2})

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(DomainError):
            SceneConfig.load(str(path))
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(DomainError):
            SceneConfig.load(str(path))

    def test_non_finite_value_rejected(self, tmp_path):
        for value in (math.nan, math.inf, -math.inf, "nan", "-inf"):
            with pytest.raises(DomainError):
                SceneConfig.load(None, {"R": value})
            with pytest.raises(DomainError):
                SceneConfig.load(None, {"tol": value})
        with pytest.raises(DomainError):
            SceneConfig.load(None, {"nr": math.inf})
        path = tmp_path / "cfg.json"
        path.write_text('{"theta0": NaN}')
        with pytest.raises(DomainError):
            SceneConfig.load(str(path))

    def test_bad_value_rejected(self):
        with pytest.raises(DomainError):
            SceneConfig.load(None, {"R": "wide"})
        with pytest.raises(DomainError):
            SceneConfig.load(None, {"nr": "many"})

    def test_numeric_coercion(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"R": 4, "nr": 32.0}))
        cfg = SceneConfig.load(str(path))
        assert isinstance(cfg.R, float) and cfg.R == 4.0
        assert isinstance(cfg.nr, int) and cfg.nr == 32

    def test_annulus_and_word_builders(self):
        cfg = SceneConfig(R=2.0, r=0.5, d=0.25, word="sss")
        a = cfg.annulus()
        assert (a.R, a.r, a.d) == (2.0, 0.5, 0.25)
        assert cfg.word_obj() == Word("sss")
        with pytest.raises(DomainError):
            SceneConfig(R=1.0, r=2.0).annulus()
        with pytest.raises(DomainError):
            SceneConfig(word="cxc").word_obj()

    def test_as_dict_round_trip(self):
        cfg = SceneConfig(R=2.0, word="sss", max_len=6)
        assert SceneConfig(**cfg.as_dict()) == cfg


class TestReport:
    def test_check_records_value_tolerance_outcome(self):
        rep = Report("demo")
        assert rep.check("small", 1e-12, 1e-9) is True
        assert rep.check("large", 0.5, 1e-9) is False
        assert rep.checks["small"] == {
            "value": 1e-12, "tolerance": 1e-9, "passed": True}
        assert rep.checks["large"]["passed"] is False

    def test_boundary_value_fails(self):
        rep = Report("demo")
        assert rep.check("edge", 1e-9, 1e-9) is False

    def test_verified_needs_an_outcome(self):
        assert Report("demo").verified is False

    def test_verified_and_exit_code(self):
        rep = Report("demo")
        rep.check("ok", 0.0, 1.0)
        assert rep.verified is True and rep.exit_code == 0
        rep.flag("claim", False)
        assert rep.verified is False and rep.exit_code == 1

    def test_failing_check_dominates(self):
        rep = Report("demo")
        rep.flag("claim", True)
        rep.check("bad", 2.0, 1.0)
        assert rep.exit_code == 1

    def test_finish_sets_timing(self):
        rep = Report("demo").finish()
        assert rep.timing_s > 0.0

    def test_json_is_stable_and_parseable(self):
        rep = Report("demo", inputs={"R": 3.0})
        rep.check("ok", 0.0, 1.0)
        text = rep.to_json()
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["command"] == "demo"
        assert data["verified"] is True
        assert list(data) == sorted(data)

    def test_nan_never_serializes(self):
        # non-finite values are written as strings, never as NaN/Infinity
        rep = Report("demo", inputs={"R": math.inf})
        rep.check("nan", math.nan, 1.0)
        rep.check("inf", math.inf, 1.0)
        rep.details["worst"] = [-math.inf, 0.5]
        assert rep.checks["nan"]["passed"] is False
        assert rep.checks["inf"]["passed"] is False

        def reject(token):
            raise ValueError(token)

        data = json.loads(rep.to_json(), parse_constant=reject)
        assert data["checks"]["nan"]["value"] == "nan"
        assert data["checks"]["inf"]["value"] == "inf"
        assert data["inputs"]["R"] == "inf"
        assert data["details"]["worst"] == ["-inf", 0.5]
        assert data["verified"] is False

    def test_golden_view_drops_run_dependent_fields(self):
        rep = Report("demo", inputs={"R": 3.0, "nr": 8}).finish()
        view = rep.golden_view()
        assert "timing_s" not in view
        assert view["inputs"] == {"R": 3.0, "nr": 8}
        assert "timing_s" in rep.as_dict()


class TestDiagnosticReport:
    def test_carries_error_and_fails(self):
        rep = diagnostic_report("scan", {"word": "cxcs"},
                                DomainError("letters must be c or s"))
        assert rep.flags == {"valid_input": False}
        assert rep.exit_code == 1
        assert rep.details["error"] == \
            "DomainError: letters must be c or s"


LOCUS = ZeroLocus(Word("cscs"), ((0.3, 0.1), (0.2, 0.4)), (0,))


class TestPayloads:
    def test_locus_payload(self):
        data = locus_payload(LOCUS)
        assert data == {
            "word": "cscs",
            "points": [[0.3, 0.1], [0.2, 0.4]],
            "component_offsets": [0],
            "certified": None,
        }
        json.dumps(data)

    def test_locus_payload_with_certification(self):
        data = locus_payload(LOCUS.with_certification((True, False)))
        assert data["certified"] == [True, False]

    def test_certification_payload(self):
        report = CertificationReport(
            Word("cscs"), LOCUS.with_certification((True, False)),
            ("closed-everywhere", "mixed"), False,
            (Counterexample(0.2, 0.4, "mixed", 1.5, 0.02),))
        data = certification_payload(report)
        assert data["word"] == "cscs"
        assert data["certified"] is False
        assert data["verdicts"] == ["closed-everywhere", "mixed"]
        assert data["counterexamples"] == [
            {"r": 0.2, "d": 0.4, "verdict": "mixed",
             "theta": 1.5, "defect": 0.02}]
        assert data["locus"]["certified"] == [True, False]
        json.dumps(data)

    def test_relation_payload(self):
        fit = RelationFit(Word("cscs"), 2,
                          ((2, 0, 0), (0, 0, 2)), (0.8, -0.6),
                          (1.0, 0.5, 1e-12), 3e-11, 1)
        data = relation_payload(fit)
        assert data["terms"] == ["R^2", "d^2"]
        assert data["coefficients"] == [0.8, -0.6]
        assert data["max_residual"] == 3e-11
        assert data["nullspace_dim"] == 1
        assert data["relation"] == fit.format()
        json.dumps(data)
