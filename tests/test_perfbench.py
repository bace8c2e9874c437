"""The benchmark's own output checks, run at the self-test's tiny sizes.

Every op of a perfbench workload re-checks its output (witness
re-evaluation, OPT and Hall bounds, BvN reassembly), so one tiny round here
catches a break in any layer the benchmark calls.  The `reproduce` workload
is left out because it writes its records to disk.
"""
import importlib
import json
from pathlib import Path

import pytest

from ordmatch.cli import ReproduceConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("selftest")


def test_oracle_and_known_metric_ops_pass_their_checks(perfbench):
    workloads, _ = perfbench
    for wl in (
        workloads.Oracle(n=3, profiles=2),
        workloads.KnownMetric(sizes=(4, 8), trials=50, thin_search_n=3),
    ):
        wl.setup(0)
        records = workloads.records(wl, 1)
        assert records and all(records.values())


def test_tiny_reproduce_config_loads(perfbench, tmp_path):
    _, selftest = perfbench
    path = tmp_path / "tiny-config.json"
    path.write_text(json.dumps(selftest.TINY_REPRODUCE))
    cfg = ReproduceConfig.load(str(path))
    assert cfg.boston_ks == tuple(selftest.TINY_REPRODUCE["boston_ks"])
    assert cfg.da_max_n == selftest.TINY_REPRODUCE["da_max_n"]
