"""Smoke test of the benchmark: every workload at smoke size, both modes.

Checks the form of the output only, never a timing.  Run from the root
of the checkout with: python3 -m pytest closurelab_bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers or stages each workload never calls: their metrics must read 0.
ABSENT = {
    "survey": ("verification.", "conics.", "render.", "chains.run_chain",
               "search.csv_write"),
    "scan": ("verification.", "conics.", "render.", "chains.",
             "search.trace", "search.certify", "search.fit"),
    "verify": ("search.",),
}
# Metrics of layers each workload calls: they must read above 0 when
# traced.  Status counts such as kernels.dead_end may read 0 anywhere.
PRESENT = {
    "survey": ("kernels.step_cc_us", "kernels.step_ss_us",
               "chains.monodromy_defect_calls",
               "search.certify_evals_per_point", "search.fit_ms",
               "report.to_json_ms", "cli.main_self_ms"),
    "scan": ("kernels.step_cc_us", "kernels.step_sc_us", "kernels.step_cs_us",
             "kernels.step_ss_us", "kernels.chain_defect_calls",
             "search.scan_s", "search.csv_write_ms", "cli.main_self_ms"),
    "verify": ("kernels.step_cc_us", "chains.run_chain_us",
               "verification.t1_ms", "verification.sangaku_ms",
               "conics.theorem6_rotation_ms", "render.render_scene_ms",
               "cli.main_self_ms"),
}


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "closurelab_bench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(PRESENT))
def test_output_form(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stderr
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int) and out["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    metrics = out["metrics"]
    assert set(metrics) == set(declared)
    for name, m in metrics.items():
        assert m["unit"] == declared[name], name
        assert isinstance(m["value"], (int, float)), name
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
    if trace:
        for name, m in metrics.items():
            if name.startswith(ABSENT[workload]):
                assert m["value"] == 0, name
        for name in PRESENT[workload] + ("trace.wall_s",):
            assert metrics[name]["value"] > 0, name


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "scan", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
