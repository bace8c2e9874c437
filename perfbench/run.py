"""Run one benchmark workload of ordmatch and print its metrics.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Run it from anywhere; it imports ordmatch from `src/` next to this directory
and writes only under `.perfbench_out/` there.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
are the per-layer ones, computed from spans the benchmark records around its
calls into each layer.  The line before it holds the environment stamp and
the details behind the numbers (tail percentile, sample counts, failures).
See NOTES.md for the workloads and what each metric should move.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it


def _matches(ref, rec) -> bool:
    """True when every key of the reference is in the record with the same
    value; keys the record adds are allowed."""
    if isinstance(ref, dict):
        return isinstance(rec, dict) and all(
            k in rec and _matches(v, rec[k]) for k, v in ref.items()
        )
    return ref == rec


def _tail(latencies: list) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {
        "value": ordered[k],
        "percentile": round(100 * (k + 1) / n, 2),
        "samples": n,
        "beyond": n - k - 1,
    }


def measure(workload, seconds: float, reference: dict, traced: bool) -> dict:
    """Run whole rounds of the workload's ops until `seconds` have passed.

    Untraced, each op runs once.  Traced, each op runs twice on the same
    input, once with spans and once without, alternating which goes first;
    the ratio of the two op times is the tracing overhead.
    """
    from spans import Layers, Tracer
    from workloads import CheckFailed

    tracer = Tracer() if traced else None
    plain, spanned = Layers(), Layers(tracer) if traced else None
    lat = {False: [], True: []}
    keys = []
    attempted = failed = 0
    counts = Counter()
    failures = []
    op_id = 0
    deadline = time.perf_counter() + seconds
    for rnd in workload.rounds():
        for op in rnd:
            modes = (False,) if not traced else ((False, True) if op_id % 2 else (True, False))
            for with_spans in modes:
                attempted += 1
                if with_spans:
                    tracer.op_id = op_id
                error = None
                start = time.perf_counter()
                try:
                    if with_spans:
                        with tracer.span("op"):
                            out = op.run(spanned)
                    else:
                        out = op.run(plain)
                except Exception as exc:  # an op that raises is a failed op
                    error = f"{type(exc).__name__}: {exc}"
                lat[with_spans].append(time.perf_counter() - start)
                if not with_spans:
                    keys.append(op.key)
                if error is None:
                    try:
                        record = op.check(out)
                        if op.key in reference and not _matches(reference[op.key], record):
                            raise CheckFailed(
                                f"expected {reference[op.key]}, got {record}"
                            )
                        if with_spans:
                            counts.update(op.counts(out))
                    except Exception as exc:  # a malformed output fails its op
                        error = f"check: {type(exc).__name__}: {exc}"
                if error is not None:
                    failed += 1
                    if len(failures) < 5:
                        failures.append({"op": op.key, "error": error[:500]})
                        print(f"op {op.key} failed: {error[:500]}", file=sys.stderr)
            op_id += 1
        if time.perf_counter() >= deadline:
            break
    return {
        "latencies": lat[False],
        "keys": keys,
        "traced_latencies": lat[True],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "counts": counts,
        "tracer": tracer,
    }


def end_to_end(m: dict, setup_s: float) -> tuple[dict, dict]:
    lat = m["latencies"]
    ok = len(lat) - m["failed"]
    tail = _tail(lat)
    metrics = {
        "ops_per_s": (ok / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail["value"], "s"),
        "ok_ratio": (1 - m["failed"] / m["attempted"], "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"op_tail_s": tail, "fail_ratio": m["failed"] / m["attempted"]}
    return metrics, detail


def per_layer(m: dict) -> tuple[dict, dict]:
    from spans import LAYERS
    from ordmatch.cli import EXPERIMENTS

    tracer = m["tracer"]
    busy, own, calls = tracer.layer_times()
    ops = len(m["traced_latencies"])
    per_op = lambda x: x / ops  # noqa: E731
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = (per_op(busy[layer]), "s")
        metrics[f"{layer}.calls"] = (per_op(calls[layer]), "count")
    for layer in ("cli.main", "op"):
        metrics[f"{layer}.self_s"] = (per_op(own[layer]), "s")
    metrics["op.busy_s"] = (per_op(busy["op"]), "s")
    c = m["counts"] + tracer.counts
    metrics["distortion.oracle.infinite"] = (per_op(c["distortion.oracle.infinite"]), "count")
    metrics["distortion.oracle.errors"] = (per_op(c["distortion.oracle.errors"]), "count")
    metrics["thin.bvn.terms"] = (per_op(c["thin.bvn.terms"]), "count")
    for name in EXPERIMENTS:
        metrics[f"cli.experiment.{name}.wall_s"] = (per_op(c[f"cli.experiment.{name}.wall_s"]), "s")
    metrics["cli.records_failed"] = (per_op(c["cli.records_failed"]), "count")
    metrics["trace.overhead_ratio"] = (sum(m["latencies"]) / sum(m["traced_latencies"]), "ratio")
    detail = {
        "traced_ops": ops,
        "spans": len(tracer.spans),
        "self_s_per_op": {k: per_op(v) for k, v in sorted(own.items())},
    }
    return metrics, detail


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def stamp(args, run_index: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ordmatch").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ordmatch_threads_env": os.environ.get("ORDMATCH_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_index": run_index,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["oracle", "known-metric", "reproduce"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ordmatch" / "__init__.py").is_file():
        print(f"error: no ordmatch sources under {SRC}", file=sys.stderr)
        return 2
    ref_path = BENCH / "reference" / f"{args.workload}.json"
    if not ref_path.is_file():
        print(f"error: missing reference {ref_path}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports ordmatch

    import_s = time.perf_counter() - _START
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        reference = json.loads(ref_path.read_text())
        wl = workloads.WORKLOADS[args.workload]()
        wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)
    m = measure(wl, args.seconds, reference, bool(args.trace))

    if args.trace:
        metrics, detail = per_layer(m)
    else:
        metrics, detail = end_to_end(m, setup_s)
    detail.update(
        import_s=import_s,
        setup_repeats_s=setup_times,
        ops=len(m["latencies"]),
        op_latencies=[[k, t] for k, t in zip(m["keys"], m["latencies"])],
        failures=m["failures"],
    )
    out = workloads.OUT
    out.mkdir(exist_ok=True)
    results = out / "results.jsonl"
    run_index = len(results.read_text().splitlines()) if results.exists() else 0
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {"stamp": stamp(args, run_index), "detail": detail}
    with results.open("a") as fh:
        fh.write(json.dumps({**info, "result": result}) + "\n")
    if args.trace:
        spans = out / f"spans-{args.workload}-seed{args.seed}-run{run_index}.json"
        spans.write_text(json.dumps(m["tracer"].spans))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
