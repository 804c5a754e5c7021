"""Run configuration and structured result reports.

SceneConfig is the single source of effective inputs for a command:
built-in defaults, then a JSON config file, then explicit flags, later
layers overriding earlier ones.  Report is the schema-stable JSON result
every command prints; numeric findings always carry the tolerance they
were judged against, and the exit-code rule is that a report verifies
exactly when every recorded check passed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import Any, Optional

from . import __version__
from .chains import Word
from .errors import DomainError
from .geometry import Annulus
from .search import CertificationReport, RelationFit, ZeroLocus

_FLOAT_KEYS = frozenset({"R", "r", "d", "theta0", "tol"})
_INT_KEYS = frozenset({"nr", "nd", "thetas", "degree", "max_len"})


@dataclass(frozen=True)
class SceneConfig:
    """Effective inputs of one command run."""

    R: float = 3.0
    r: float = 1.0
    d: float = 0.0
    word: str = "cscs"
    theta0: float = 0.0
    nr: int = 64
    nd: int = 64
    thetas: int = 64
    tol: Optional[float] = None
    degree: int = 2
    max_len: int = 4

    @classmethod
    def field_names(cls) -> frozenset[str]:
        return frozenset(f.name for f in fields(cls))

    @classmethod
    def load(cls, config_path: Optional[str] = None,
             overrides: Optional[dict] = None) -> "SceneConfig":
        """Defaults, overlaid by the JSON file, overlaid by flags.

        Override entries with value None are treated as unset so argparse
        results can be passed through unfiltered.
        """
        values: dict[str, Any] = {}
        if config_path is not None:
            with open(config_path, "r", encoding="utf-8") as fh:
                try:
                    raw = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise DomainError(f"config is not valid JSON: {exc}")
            if not isinstance(raw, dict):
                raise DomainError("config must be a JSON object")
            values.update(raw)
        for key, value in (overrides or {}).items():
            if value is not None:
                values[key] = value
        unknown = set(values) - cls.field_names()
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        for key in list(values):
            try:
                if key in _FLOAT_KEYS and values[key] is not None:
                    values[key] = float(values[key])
                elif key in _INT_KEYS:
                    values[key] = int(values[key])
                elif key == "word":
                    values[key] = str(values[key])
            except (TypeError, ValueError, OverflowError):
                raise DomainError(f"config key {key!r} has a bad value: "
                                  f"{values[key]!r}")
            if isinstance(values[key], float) and \
                    not math.isfinite(values[key]):
                raise DomainError(f"config key {key!r} must be finite, "
                                  f"got {values[key]!r}")
        return cls(**values)

    def annulus(self) -> Annulus:
        return Annulus.canonical(self.R, self.r, self.d)

    def word_obj(self) -> Word:
        return Word(self.word)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class Report:
    """Structured result of one command.

    checks maps a name to {value, tolerance, passed}; flags are plain
    named booleans.  verified requires every check and flag to pass, so
    the exit code follows mechanically.
    """

    command: str
    inputs: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    timing_s: float = 0.0
    version: str = __version__
    _started: float = field(default_factory=time.perf_counter, repr=False)

    def check(self, name: str, value: float, tolerance: float) -> bool:
        passed = bool(value < tolerance)
        self.checks[name] = {"value": float(value),
                             "tolerance": float(tolerance),
                             "passed": passed}
        return passed

    def flag(self, name: str, passed: bool) -> bool:
        self.flags[name] = bool(passed)
        return bool(passed)

    def finish(self) -> "Report":
        self.timing_s = time.perf_counter() - self._started
        return self

    @property
    def verified(self) -> bool:
        outcomes = [c["passed"] for c in self.checks.values()]
        outcomes.extend(self.flags.values())
        return bool(outcomes) and all(outcomes)

    @property
    def exit_code(self) -> int:
        return 0 if self.verified else 1

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "version": self.version,
            "inputs": self.inputs,
            "checks": self.checks,
            "flags": self.flags,
            "details": self.details,
            "verified": self.verified,
            "timing_s": self.timing_s,
        }

    def golden_view(self) -> dict:
        """The report without its run-dependent field, the timing."""
        view = self.as_dict()
        del view["timing_s"]
        return view

    def to_json(self) -> str:
        """The report as JSON; a non-finite float is written as the string
        "inf", "-inf" or "nan", so a failed check can always be reported."""
        return json.dumps(_finite(self.as_dict()), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"


def _finite(value):
    """value with every non-finite float replaced by its repr string."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def diagnostic_report(command: str, inputs: dict, error: Exception) -> Report:
    """Failure report for malformed input or I/O trouble."""
    rep = Report(command, inputs=dict(inputs))
    rep.details["error"] = f"{type(error).__name__}: {error}"
    rep.flag("valid_input", False)
    return rep.finish()


def locus_payload(locus: ZeroLocus) -> dict:
    return {
        "word": locus.word.letters,
        "points": [[r, d] for r, d in locus.points],
        "component_offsets": list(locus.component_offsets),
        "certified": None if locus.certified is None
        else list(locus.certified),
    }


def certification_payload(report: CertificationReport) -> dict:
    return {
        "word": report.word.letters,
        "certified": report.certified,
        "verdicts": list(report.verdicts),
        "counterexamples": [
            {"r": c.r, "d": c.d, "verdict": c.verdict,
             "theta": c.theta, "defect": c.defect}
            for c in report.counterexamples
        ],
        "locus": locus_payload(report.locus),
    }


def relation_payload(fit: RelationFit) -> dict:
    return {
        "word": fit.word.letters,
        "degree": fit.degree,
        "terms": list(fit.term_labels()),
        "exponents": [list(e) for e in fit.exponents],
        "coefficients": list(fit.coefficients),
        "max_residual": fit.max_residual,
        "nullspace_dim": fit.nullspace_dim,
        "relation": fit.format(),
    }
