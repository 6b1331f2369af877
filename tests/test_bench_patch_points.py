"""The library names the benchmark's tracer patches must stay in place.

``bench/spans.py`` replaces public names where their callers look them
up and restores them on exit.  A change that deletes or renames one of
those names, or stops passing the pencil its stack first, breaks the
traced benchmark; this test makes it fail the main suite as well.
"""

import importlib
from pathlib import Path

import numpy as np

import kweave.weaving
from kweave.frames import Frame
from kweave.kframe import KOperator
from kweave.weaving import certify_woven

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores_every_patch_point(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    pencil = kweave.weaving.pencil_lower_bounds
    eigvalsh = np.linalg.eigvalsh
    tracer = spans.Tracer()
    with tracer.install():
        assert kweave.weaving.pencil_lower_bounds is not pencil
        assert np.linalg.eigvalsh is not eigvalsh
        certify_woven([Frame(np.eye(2)), Frame(np.eye(2))], KOperator(np.eye(2)))
    assert kweave.weaving.pencil_lower_bounds is pencil
    assert np.linalg.eigvalsh is eigvalsh
    assert tracer.counts["kframe.pencil.stack_rows"] == 4
