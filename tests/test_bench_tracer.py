"""Smoke test of the benchmark's outside-in tracer (``perfbench/tracer.py``).

The tracer patches natforms functions and class methods by name, so a
rename or deletion in the library can break the benchmark; this runs one
small CLI command under it and checks that the wrappers see the calls and
that uninstalling restores every original.
"""

import os
import sys

import pytest

from natforms import cli, exactla
from natforms.tensor import TensorField

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    return tracer


def test_tracer_sees_a_verdict_and_restores_the_library(tracer_module, capsys):
    echelon, get = exactla.echelon, TensorField.__dict__["get"]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert exactla.echelon is not echelon
        assert cli.main(["verify", "lemma-3.5"]) == 0
    finally:
        tracer.uninstall()
    assert "claim lemma-3.5: PASS" in capsys.readouterr().out
    assert tracer.calls["verify.verify_lemma_3_5_partial"] == 1
    assert tracer.calls["exactla.echelon"] >= 1
    assert exactla.echelon is echelon
    assert TensorField.__dict__["get"] is get


def test_tracer_counts_every_call_that_cprofile_sees(monkeypatch):
    # a library call made through a captured reference bypasses the wrapped
    # binding, so the tracer would undercount it
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in ("selfcheck", "run", "workloads", "tracer", "hostspeed"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import selfcheck

    assert selfcheck.check_coverage() == []
