"""Command-line surface for verification, scans, searches, and figures.

Every command prints a Report as JSON on stdout.  Exit codes: 0 when the
report verifies (or the command completed with nothing to falsify),
1 when a claim is falsified or a chain fails to close, 2 for invalid or
degenerate input, 3 for I/O failures.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from . import __version__
from .chains import PROGRESS_TOL, Word, run_chain, seed_element
from .errors import ChainError, GeometryError
from .render import render_scene
from .report import (
    Report,
    SceneConfig,
    certification_payload,
    diagnostic_report,
    locus_payload,
    relation_payload,
)
from .search import (
    CERTIFY_TOL,
    certify_closure_sequence,
    enumerate_words,
    fit_relation,
    scan_defect,
    trace_zero_locus,
)
from .verification import (
    fitted_gamma,
    frame_ratio,
    verify_sangaku,
    verify_t1,
    verify_t2,
    verify_t3,
    verify_t4,
    verify_t5,
    verify_t6,
)

_THEOREMS = ("t1", "t2", "t3", "t4", "t5", "t6", "sangaku")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors print a diagnostic report.

    The usage text still goes to stderr; stdout gets one report with
    valid_input false, and the exit code stays 2.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        command = self.prog.partition(" ")[2] or self.prog
        err = argparse.ArgumentError(None, message)
        sys.stdout.write(diagnostic_report(command, {}, err).to_json())
        self.exit(2)


def _add_flags(parser: argparse.ArgumentParser, *names: str,
               out: Optional[bool] = None) -> None:
    """Attach the shared option set; every value defaults to unset.

    out: None = no artifact flag, False = optional --out, True =
    required --out.
    """
    parser.add_argument("--config", metavar="JSON",
                        help="JSON file with SceneConfig fields")
    table: dict[str, dict] = {
        "R": {"type": float, "help": "outer radius"},
        "r": {"type": float, "help": "inner radius"},
        "d": {"type": float, "help": "distance between the centers"},
        "word": {"type": str, "help": "chain word over {c, s}"},
        "theta0": {"type": float, "help": "seed angle"},
        "nr": {"type": int, "help": "grid cells along r"},
        "nd": {"type": int, "help": "grid cells along d"},
        "thetas": {"type": int, "help": "seed angles per closure test"},
        "tol": {"type": float, "help": "closure tolerance"},
        "degree": {"type": int, "help": "total degree of the fitted form"},
        "max-len": {"type": int, "dest": "max_len",
                    "help": "largest word length"},
    }
    for name in names:
        parser.add_argument(f"--{name}", **table[name])
    if out is not None:
        parser.add_argument("--out", metavar="PATH", required=out,
                            help="artifact output path")


def _config_from(args: argparse.Namespace) -> SceneConfig:
    overrides = {name: getattr(args, name)
                 for name in SceneConfig.field_names()
                 if hasattr(args, name)}
    return SceneConfig.load(getattr(args, "config", None), overrides)


def _emit(rep: Report) -> int:
    sys.stdout.write(rep.to_json())
    return rep.exit_code


def _tol(cfg: SceneConfig, default: float) -> float:
    return default if cfg.tol is None else cfg.tol


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    which = args.theorem
    if which == "t1":
        rep = verify_t1(cfg.annulus(), seeds=cfg.thetas,
                        tol=_tol(cfg, 1e-8))
    elif which == "t2":
        rep = verify_t2(frame_ratio(cfg.annulus()))
    elif which == "t3":
        rep = verify_t3(cfg.annulus(), cfg.word_obj())
    elif which == "t4":
        rep = verify_t4(cfg.annulus())
    elif which == "t5":
        rep = verify_t5(cfg.annulus())
    elif which == "t6":
        rep = verify_t6(tol=_tol(cfg, 1e-8))
    else:
        rep = verify_sangaku(cfg.annulus(), tol=_tol(cfg, 1e-9))
    return _emit(rep)


def cmd_chain(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    a, w = cfg.annulus(), cfg.word_obj()
    rep = Report("chain", inputs=cfg.as_dict())
    tol = _tol(cfg, PROGRESS_TOL)
    try:
        run = run_chain(a, w, seed_element(a, w.letter(0), cfg.theta0),
                        tol=tol)
    except ChainError as exc:
        rep.flag("chain_closed", False)
        rep.details.update({
            "error": f"{type(exc).__name__}: {exc}",
            "failed_index": exc.index,
            "elements_built": len(exc.elements),
        })
        return _emit(rep.finish())
    rep.check("chain_defect", abs(run.defect), tol)
    rep.flag("chain_closed", run.closed)
    rep.details.update({"defect": run.defect,
                        "elements": len(run.elements)})
    return _emit(rep.finish())


def cmd_scan(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    rep = Report("scan", inputs=cfg.as_dict())
    grid = scan_defect(cfg.word_obj(), cfg.nr, cfg.nd)
    grid.to_csv(args.out)
    completed = int((grid.status == 0).sum())
    rep.flag("completed", True)
    rep.details.update({
        "shape": list(grid.shape),
        "ok_cells": completed,
        "marked_cells": grid.status.size - completed,
    })
    return _emit(rep.finish())


def cmd_search(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    rep = Report("search", inputs=cfg.as_dict())
    tol = _tol(cfg, CERTIFY_TOL)
    entries = []
    certified: list[str] = []
    with_locus = 0
    for w in enumerate_words(cfg.max_len):
        grid = scan_defect(w, cfg.nr, cfg.nd)
        locus = trace_zero_locus(w, grid)
        if len(locus) == 0:
            entries.append({"word": w.letters, "outcome": "no-locus"})
            continue
        with_locus += 1
        report = certify_closure_sequence(w, locus, thetas=cfg.thetas,
                                          tol=tol)
        outcome = "certified" if report.certified else "not-certified"
        if report.certified:
            certified.append(w.letters)
        entries.append({"word": w.letters, "outcome": outcome,
                        **certification_payload(report)})
    payload = {"max_len": cfg.max_len, "nr": cfg.nr, "nd": cfg.nd,
               "thetas": cfg.thetas, "tol": tol, "words": entries}
    if args.out is not None:
        _write_json(args.out, payload)
    rep.flag("completed", True)
    rep.details.update({"words_scanned": len(entries),
                        "with_locus": with_locus,
                        "certified": certified,
                        "words": entries})
    return _emit(rep.finish())


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    rep = Report("fit", inputs=cfg.as_dict())
    w = cfg.word_obj()
    grid = scan_defect(w, cfg.nr, cfg.nd)
    locus = trace_zero_locus(w, grid)
    fit = fit_relation(locus, cfg.degree)
    payload = relation_payload(fit)
    payload["locus"] = locus_payload(locus)
    if args.out is not None:
        _write_json(args.out, payload)
    rep.flag("completed", True)
    rep.details["fit"] = relation_payload(fit)
    rep.details["locus_points"] = len(locus)
    return _emit(rep.finish())


def cmd_render(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    rep = Report("render", inputs=cfg.as_dict())
    a, w = cfg.annulus(), cfg.word_obj()
    gamma = None
    if a.d > 0.0:
        try:
            gamma = fitted_gamma(a)
        except GeometryError:
            gamma = None
    svg, complete = render_scene(a, w, theta0=cfg.theta0, gamma=gamma)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)
    rep.flag("render_complete", complete)
    rep.details.update({"gamma_drawn": gamma is not None,
                        "svg_bytes": len(svg.encode("utf-8"))})
    return _emit(rep.finish())


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="closurelab",
        description="Numerical laboratory for tangent chain closure in a "
                    "circular annulus",
        allow_abbrev=False)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("verify", help="run one statement's numeric suite",
                       allow_abbrev=False)
    p.add_argument("theorem", choices=_THEOREMS)
    _add_flags(p, "R", "r", "d", "word", "theta0", "thetas", "tol")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("chain", help="run one chain and report its defect",
                       allow_abbrev=False)
    _add_flags(p, "R", "r", "d", "word", "theta0", "tol")
    p.set_defaults(handler=cmd_chain)

    p = sub.add_parser("scan", help="write the defect grid of a word as CSV",
                       allow_abbrev=False)
    _add_flags(p, "word", "nr", "nd", out=True)
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("search",
                       help="scan, trace, and certify canonical words",
                       allow_abbrev=False)
    _add_flags(p, "max-len", "nr", "nd", "thetas", "tol", out=False)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("fit",
                       help="fit a polynomial relation to a word's locus",
                       allow_abbrev=False)
    _add_flags(p, "word", "degree", "nr", "nd", out=False)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("render", help="draw one chain scene as SVG",
                       allow_abbrev=False)
    _add_flags(p, "R", "r", "d", "word", "theta0", out=True)
    p.set_defaults(handler=cmd_render)
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the subcommand, not the top level, reports flags it does not know
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    handler: Callable[[argparse.Namespace], int] = args.handler
    inputs = {k: v for k, v in vars(args).items()
              if k not in {"handler", "command", "parser"} and v is not None}
    try:
        return handler(args)
    except GeometryError as exc:
        sys.stdout.write(diagnostic_report(args.command, inputs,
                                           exc).to_json())
        return 2
    except OSError as exc:
        sys.stdout.write(diagnostic_report(args.command, inputs,
                                           exc).to_json())
        return 3


if __name__ == "__main__":
    sys.exit(main())
