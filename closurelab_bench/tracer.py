"""Per-layer tracing from outside the program.

The tracer wraps public functions of closurelab's modules while a round
runs and restores them afterwards, so an untraced run executes the
program unchanged.  A wrapped function is rebound wherever a closurelab
module holds it, so calls between modules (``from .chains import
run_chain``) and calls inside a module (``_reference.chain_run`` calling
``step_element``) are both seen.  Small helpers that run inside every
loop (``geometry``, ``wrap_2pi``, ``inscribed_center``) are not wrapped
and stay in the enclosing span.

Every wrapped call updates its layer's counters: calls, time, self time
(time minus the wrapped calls it made) and the chain evaluations made
inside it.  Calls of the kernel and of ``monodromy_defect`` run hundreds
of thousands of times per round, so they only update counters; all other
calls are also kept as spans (id, parent, name, start, end) and written
out with the counters when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from array import array
from time import perf_counter

# (metric layer, module, attribute) of every wrapped callable; a dotted
# attribute names a method.  The cli handlers' callees are all listed so
# that cli.main's self time is its own argument parsing and dispatch.
WRAPPED = [
    ("kernels", "closurelab._kernels", "chain_defect"),
    ("kernels", "closurelab._kernels", "chain_run"),
    ("kernels", "closurelab._kernels", "step_element"),
    ("kernels", "closurelab._kernels", "steiner_pair"),
    ("kernels", "closurelab._kernels", "tangent_circles_to_chord"),
    ("chains", "closurelab.chains", "monodromy_defect"),
    ("chains", "closurelab.chains", "is_closure_config"),
    ("chains", "closurelab.chains", "run_chain"),
    ("chains", "closurelab.chains", "seed_element"),
    ("search", "closurelab.search", "scan_defect"),
    ("search", "closurelab.search", "trace_zero_locus"),
    ("search", "closurelab.search", "certify_closure_sequence"),
    ("search", "closurelab.search", "enumerate_words"),
    ("search", "closurelab.search", "fit_relation"),
    ("search", "closurelab.search", "DefectGrid.to_csv"),
    ("verification", "closurelab.verification", "verify_t1"),
    ("verification", "closurelab.verification", "verify_t2"),
    ("verification", "closurelab.verification", "verify_t3"),
    ("verification", "closurelab.verification", "verify_t4"),
    ("verification", "closurelab.verification", "verify_t5"),
    ("verification", "closurelab.verification", "verify_t6"),
    ("verification", "closurelab.verification", "verify_sangaku"),
    ("verification", "closurelab.verification", "frame_ratio"),
    ("verification", "closurelab.verification", "fitted_gamma"),
    ("conics", "closurelab.conics", "fit_dual_conic"),
    ("conics", "closurelab.conics", "theorem6_rotation"),
    ("render", "closurelab.render", "render_scene"),
    ("report", "closurelab.report", "Report.to_json"),
    ("report", "closurelab.report", "SceneConfig.load"),
    ("report", "closurelab.report", "certification_payload"),
    ("report", "closurelab.report", "locus_payload"),
    ("report", "closurelab.report", "relation_payload"),
    ("report", "closurelab.report", "diagnostic_report"),
    ("cli", "closurelab.cli", "main"),
]

# Counted but not kept as spans.
HOT = frozenset({"kernels.chain_defect", "kernels.chain_run",
                 "kernels.step_element", "kernels.steiner_pair",
                 "kernels.tangent_circles_to_chord",
                 "chains.monodromy_defect"})

# Chain status codes of the kernel API (closurelab._kernels).
STATUS_NAMES = {1: "dead_end", 2: "tie", 3: "bad_annulus"}


class _Stat:
    __slots__ = ("calls", "total", "self_total", "evals", "durations",
                 "self_durations", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.evals = 0
        self.durations = array("d")
        self.self_durations = array("d")
        self.extra = 0.0  # cells for scan_defect, points for trace/certify

    def snapshot(self):
        return (self.calls, self.total, self.self_total, self.evals,
                self.extra)


class Tracer:
    """Counters and spans of the wrapped calls, kept in memory."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.status_counts = {name: 0 for name in STATUS_NAMES.values()}
        self.evals = 0            # chain_defect calls so far
        self.reruns = 0           # chain_run calls made by monodromy_defect
        self.spans: list[tuple] = []
        self.rounds: list[dict] = []
        self._stack: list[list] = []  # [name, child_time, span_id]
        self._patched: list[tuple] = []
        self._round_start = None

    # -- installation --------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "closurelab"
                                      or name.startswith("closurelab."))]
        for layer, modname, attr in WRAPPED:
            owner = importlib.import_module(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                if isinstance(orig, classmethod):
                    wrapped = classmethod(
                        self._wrap(f"{layer}.{meth}", orig.__func__))
                else:
                    wrapped = self._wrap(f"{layer}.{meth}", orig)
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(f"{layer}.{attr}", orig)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._patched):
            setattr(target, key, orig)
        self._patched.clear()

    # -- rounds --------------------------------------------------------

    def begin_round(self) -> None:
        self._round_start = ({k: s.snapshot() for k, s in self.stats.items()},
                             dict(self.status_counts), self.reruns)
        self.install()

    def end_round(self, wall: float) -> None:
        self.uninstall()
        before, counts, reruns = self._round_start
        delta = {}
        for key, stat in self.stats.items():
            now = stat.snapshot()
            old = before.get(key, (0, 0.0, 0.0, 0, 0.0))
            delta[key] = tuple(a - b for a, b in zip(now, old))
        self.rounds.append({
            "wall": wall,
            "stats": delta,
            "status": {k: v - counts[k]
                       for k, v in self.status_counts.items()},
            "reruns": self.reruns - reruns,
        })

    # -- wrapping ------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        if name not in self.stats:
            self.stats[name] = _Stat()
        return self.stats[name]

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        stat = self._stat(name)
        keep_span = name not in HOT

        if name == "kernels.step_element":
            pair_stats = {a + b: self._stat(f"kernels.step_{a}{b}")
                          for a in "cs" for b in "cs"}

            def step_wrapper(R, r, d, elem, letter, orientation=1):
                frame = [name, 0.0, None]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(R, r, d, elem, letter, orientation)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dt
                    for s in (stat, pair_stats[elem[0] + letter]):
                        s.calls += 1
                        s.total += dt
                        s.self_total += dt - frame[1]
                        s.durations.append(dt)
            return step_wrapper

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if keep_span:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            evals0 = tracer.evals
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_total += dt - frame[1]
                stat.durations.append(dt)
                stat.self_durations.append(dt - frame[1])
                stat.evals += tracer.evals - evals0
                if keep_span:
                    tracer.spans[span_id] = (
                        span_id, parent[2] if parent is not None else None,
                        name, t0, t1)
            tracer._observe(name, parent, args, result)
            return result
        return wrapper

    def _observe(self, name, parent, args, result) -> None:
        """Counts read from a completed call's arguments and result."""
        if name == "kernels.chain_defect":
            self.evals += 1
            status = STATUS_NAMES.get(result[0])
            if status is not None:
                self.status_counts[status] += 1
        elif name == "kernels.chain_run":
            if parent is not None and parent[0] == "chains.monodromy_defect":
                self.reruns += 1
        elif name == "search.scan_defect":
            self.stats[name].extra += result.status.size
        elif name == "search.trace_zero_locus":
            self.stats[name].extra += len(result)
        elif name == "search.certify_closure_sequence":
            self.stats[name].extra += len(args[1].points)

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric.

        Times per call are medians over every call of the run; per-round
        figures are medians over the rounds.  A function the run never
        called reads 0: no calls, no time, no work.
        """
        out: dict[str, tuple[float, str]] = {}

        def per_call(metric, key, unit, scale, self_time=False):
            s = self.stats.get(key)
            values = (s.self_durations if self_time else s.durations) \
                if s is not None else ()
            out[metric] = (statistics.median(values) * scale if values
                           else 0.0, unit)

        def per_round(metric, unit, fn):
            out[metric] = (statistics.median(fn(r) for r in self.rounds),
                           unit)

        def col(key, i):
            return lambda rnd: rnd["stats"].get(key, (0, 0.0, 0.0, 0, 0.0))[i]

        for pair in ("cc", "sc", "cs", "ss"):
            per_call(f"kernels.step_{pair}_us", f"kernels.step_{pair}",
                     "us", 1e6)
        per_call("kernels.steiner_pair_us", "kernels.steiner_pair", "us", 1e6)
        per_call("kernels.tangent_circles_us",
                 "kernels.tangent_circles_to_chord", "us", 1e6)
        per_round("kernels.chain_defect_calls", "count",
                  col("kernels.chain_defect", 0))
        per_round("kernels.chain_defect_s", "s",
                  col("kernels.chain_defect", 1))
        for status in STATUS_NAMES.values():
            per_round(f"kernels.{status}", "count",
                      lambda rnd, s=status: rnd["status"][s])
        per_round("chains.monodromy_defect_calls", "count",
                  col("chains.monodromy_defect", 0))
        per_round("chains.rerun_on_failure", "count",
                  lambda rnd: rnd["reruns"])
        per_call("chains.is_closure_config_ms", "chains.is_closure_config",
                 "ms", 1e3)
        per_call("chains.run_chain_us", "chains.run_chain", "us", 1e6)
        scan = "search.scan_defect"
        per_round("search.scan_s", "s", col(scan, 1))
        per_round("search.scan_cells_per_s", "cells/s",
                  lambda rnd: col(scan, 4)(rnd) / (col(scan, 1)(rnd) or 1.0))
        for stage, key in (("trace", "search.trace_zero_locus"),
                           ("certify", "search.certify_closure_sequence")):
            per_round(f"search.{stage}_s", "s", col(key, 1))
            per_round(f"search.{stage}_evals_per_point", "evals/point",
                      lambda rnd, k=key: col(k, 3)(rnd)
                      / max(col(k, 4)(rnd), 1.0))
        per_call("search.fit_ms", "search.fit_relation", "ms", 1e3)
        per_call("search.csv_write_ms", "search.to_csv", "ms", 1e3)
        for t in ("t1", "t2", "t3", "t4", "t5", "t6", "sangaku"):
            per_call(f"verification.{t}_ms", f"verification.verify_{t}",
                     "ms", 1e3)
        per_call("conics.fit_dual_conic_ms", "conics.fit_dual_conic",
                 "ms", 1e3)
        per_call("conics.theorem6_rotation_ms", "conics.theorem6_rotation",
                 "ms", 1e3)
        per_call("render.render_scene_ms", "render.render_scene", "ms", 1e3)
        per_call("report.to_json_ms", "report.to_json", "ms", 1e3)
        per_call("cli.main_self_ms", "cli.main", "ms", 1e3, self_time=True)
        per_round("trace.wall_s", "s", lambda rnd: rnd["wall"])
        return out

    def write(self, path) -> None:
        """Counters, per-round deltas and spans as one JSON file."""
        payload = {
            "counters": {k: {"calls": s.calls, "total_s": s.total,
                             "self_s": s.self_total, "evals": s.evals}
                         for k, s in sorted(self.stats.items())},
            "rounds": self.rounds,
            "spans": [list(s) for s in self.spans if s is not None],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
