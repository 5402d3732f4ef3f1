"""The benchmark's traced layers must name functions that exist.

``bench/spans.py`` patches each ``TARGETS`` entry by its dotted path and, when
a path no longer resolves, quietly reports that layer's metrics as 0. Loading
it from its file and resolving every entry makes such a rename fail here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()


@pytest.mark.parametrize("name", sorted(_spans.TARGETS))
def test_target_resolves(name):
    target = _spans.TARGETS[name][0]
    _, _, raw = _spans._resolve(target)
    assert callable(getattr(raw, "__func__", raw)), target
