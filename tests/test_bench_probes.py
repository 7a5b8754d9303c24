"""Every function the benchmark's spans wrap still exists under its name.

A renamed or removed target would leave its per-layer metrics blank instead
of failing.  The PROBES table is read from bench/spans.py as a literal; the
module is not run and nothing is patched.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _probes():
    for node in ast.parse(SPANS.read_text()).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if isinstance(node, ast.Assign) and names == ["PROBES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no PROBES")


@pytest.mark.parametrize("span,module,attr", _probes(), ids=lambda v: str(v))
def test_probe_target_resolves(span, module, attr):
    target = importlib.import_module(module)
    for name in attr.split("."):
        target = getattr(target, name)
    assert callable(target), f"{module}.{attr} ({span})"
