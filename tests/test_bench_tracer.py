"""The benchmark tracer's wrapped names exist in the package.

closurelab_bench/tracer.py looks up every (module, attribute) pair of its
WRAPPED table when a traced run starts, so removing or renaming one of
those names breaks the traced benchmark.  The benchmark's own tests live
outside this test tree; this check keeps the names covered here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "closurelab_bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = load_tracer().WRAPPED


@pytest.mark.parametrize("layer,modname,attr", WRAPPED,
                         ids=[f"{m}.{a}" for _, m, a in WRAPPED])
def test_wrapped_name_resolves(layer, modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
