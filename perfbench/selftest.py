"""Fast self-test of the benchmark (a few seconds).

    python3 perfbench/selftest.py

Runs each workload on a tiny corpus, checks that the metric names and units
match BENCHMARK.json, that a deliberately wrong reference value is counted as
a failed op, that the traced run attributes oracle time to the oracle layer,
and that `run.py` prints the result line and refuses to run without sources.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TINY_REPRODUCE = {
    "sd_line_n": 3,
    "sd_line_oracle_cap": 3,
    "tree_det_samples": 10,
    "tree_frac_mixes": 3,
    "repmatch_instances": 4,
    "repmatch_max_n": 3,
    "trsd_pairs": 3,
    "trsd_max_n": 3,
    "boston_ks": [2, 3],
    "thin_cycle_ks": [1],
    "hall_matrices": 4,
    "hall_metrics_each": 2,
    "hall_max_n": 4,
    "da_profiles": 1,
    "da_max_n": 3,
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def _units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def _tiny(name: str, workdir: Path):
    if name == "oracle":
        return workloads.Oracle(n=3, profiles=2)
    if name == "known-metric":
        return workloads.KnownMetric(sizes=(4, 8), trials=50, thin_search_n=3)
    config = workdir / "tiny-config.json"
    config.write_text(json.dumps(TINY_REPRODUCE))
    return workloads.Reproduce(workdir=workdir, config=config)


def _corrupt(reference: dict) -> dict:
    """The reference with its first leaf value replaced by a wrong one."""
    bad = json.loads(json.dumps(reference))
    node = bad[next(iter(bad))]
    while isinstance(node[next(iter(node))], dict):
        node = node[next(iter(node))]
    key = next(iter(node))
    node[key] = str(Fraction(node[key]) + 1) if node[key] != "inf" else "0"
    return bad


def check_workload(name: str, workdir: Path) -> None:
    spec = _spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    wl = _tiny(name, workdir)
    wl.setup(0)
    reference = workloads.records(wl, 1)
    m = run.measure(wl, 0, reference, traced=False)
    _expect(m["failed"] == 0, f"{name}: tiny run failed {m['failures']}")
    metrics, _ = run.end_to_end(m, setup_s=0.01)
    _expect(_units(metrics) == e2e, f"{name}: end-to-end metrics differ from BENCHMARK.json")
    _expect(metrics["ok_ratio"][0] == 1, f"{name}: ok_ratio below 1 on a clean run")

    m = run.measure(wl, 0, reference, traced=True)
    _expect(m["failed"] == 0, f"{name}: traced tiny run failed {m['failures']}")
    metrics, _ = run.per_layer(m)
    _expect(_units(metrics) == layers, f"{name}: per-layer metrics differ from BENCHMARK.json")
    oracle_share = metrics["distortion.oracle.busy_s"][0] / metrics["op.busy_s"][0]
    if name == "oracle":
        _expect(oracle_share > 0.5, "oracle: distortion.oracle.busy_s is not most of op time")
    if name == "known-metric":
        _expect(metrics["distortion.oracle.calls"][0] == 0, "known-metric: made oracle calls")
        _expect(metrics["thin.bvn.terms"][0] > 0, "known-metric: BvN terms not counted")

    print(f"selftest {name}: planting a wrong reference value, one failure expected", flush=True)
    m = run.measure(wl, 0, _corrupt(reference), traced=False)
    metrics, detail = run.end_to_end(m, setup_s=0.01)
    _expect(m["failed"] >= 1, f"{name}: a wrong reference value was not counted as a failure")
    _expect(detail["fail_ratio"] > 0 and metrics["ok_ratio"][0] < 1, f"{name}: fail_ratio missed it")
    print(f"selftest {name}: ok", flush=True)


def check_command(workdir: Path) -> None:
    names = {m["name"] for m in _spec()["end_to_end"]}
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "reproduce",
           "--seed", "0", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    _expect(done.returncode == 0, f"run.py exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    _expect(result["correct"] and result["failed"] == 0, "reproduce op failed")
    _expect(set(result["metrics"]) == names, "run.py metric names")

    bare = workdir / "bare"
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd[1] = str(bare / BENCH.name / "run.py")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=bare)
    _expect(done.returncode != 0 and not done.stdout.strip(), "run.py ran without sources")
    print("selftest command: ok", flush=True)


def main() -> int:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        for name in workloads.WORKLOADS:
            check_workload(name, Path(tmp))
        check_command(Path(tmp))
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
