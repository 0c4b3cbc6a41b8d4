"""The benchmark's reports, pinned in tier-1.

Each case builds a benchmark workload's command line with
``perfbench/workloads.setup``, runs it through ``natforms.cli.main`` and
compares the sha256 of its standard output with the digest recorded in
``perfbench/digests.json``.  The default-seed ``verify all`` report is also
pinned in ``testdata/golden``; the dense thm-3.2 certificates and the
``bianchi`` report are pinned only here.
"""

import hashlib
import json
import os
import sys

import pytest

from natforms import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    return workloads


@pytest.mark.parametrize("name", ["paper_all", "bianchi", "dense_thm32"])
def test_report_matches_the_recorded_digest(name, workloads, tmp_path, capsys):
    seed = 0
    with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as handle:
        table = json.load(handle)[name]
    assert table["size"] == workloads.report_size(name, workloads.size(name, seed, False))
    expected = table["any_seed"] or table["by_seed"][str(seed)]
    argv = workloads.setup(name, seed, False, str(tmp_path))
    capsys.readouterr()
    assert cli.main(argv) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode()).hexdigest() == expected
