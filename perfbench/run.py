#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload solve-greedy --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. It builds the library and the harness
from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, default
.bench_build, runs perfbench's mbta_perfbench binary on the workload, and
checks every output. The metric names and units it reports are the ones
BENCHMARK.json lists: with --trace 0 the end-to-end metrics of an
untraced run, with --trace 1 the per-layer metrics of a traced run, whose
per-layer self times come from the repository's tools/mbta_trace.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit status is 0 when every output check passed, 1 when one failed,
and 2 when the benchmark could not be built or run; in that last case no
JSON line is printed.

    python3 perfbench/run.py --self-test

builds and runs the harness's own unit tests instead.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BENCHMARK.json lists the first three; service-durable runs on request
# (its figures follow the disk's fsync latency, see perfbench/README.md).
WORKLOADS = ("solve-greedy", "solve-flow", "service-churn", "service-durable")
JOBS = "4"
RUN_TIMEOUT_S = 170

# Span name -> layer for the traced run's self-time split. Benchmark-owned
# spans are named <layer>/<call>; the rest are the phase spans the
# solvers and MarketService already publish.
PHASE_LAYERS = {
    "solve": "core", "build_heap": "core", "lazy_loop": "core",
    "scan_rounds": "core", "flow": "core", "build_graph": "core",
    "extract": "core", "augment": "flow",
    "service": "service", "epoch": "service", "apply": "service",
    "rebuild": "service", "repair": "service", "full_resolve": "service",
    "validate": "service", "wal": "service", "snapshot": "service",
}
SPAN_PREFIX_LAYERS = {"io": "io", "core": "core", "market": "market",
                      "mcf": "flow", "service": "service"}
ROOT_SPAN = "bench/op"
LAYERS = ("io", "core", "market", "flow", "service", "unattributed")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    tree = build_dir() / "perfbench"
    # Compiler temporaries stay inside the checkout too.
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(tree),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(tree), "-j", JOBS, "--target", *targets],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(step))
    return tree


def layer_of(span):
    if span == ROOT_SPAN:
        return "unattributed"
    if span in PHASE_LAYERS:
        return PHASE_LAYERS[span]
    return SPAN_PREFIX_LAYERS.get(span.split("/")[0])


def self_times(mbta_trace, trace_path):
    """Per-span (calls, total ms, self ms) from `mbta_trace <trace>`."""
    out = subprocess.run([str(mbta_trace), str(trace_path)], check=True,
                         capture_output=True, text=True).stdout
    spans = {}
    for line in out.splitlines():
        m = re.match(r"^(\S+)\s+(\d+)\s+([-\d.e+]+)\s+([-\d.e+]+)\s*$", line)
        if m:
            spans[m.group(1)] = (int(m.group(2)), float(m.group(3)),
                                 float(m.group(4)))
    return spans


def layer_report(spans):
    """Self time per layer as a share of the ops' wall time (the total of
    the root span), printed and returned as per-layer metrics."""
    if ROOT_SPAN not in spans:
        fail("traced run recorded no operations")
    ops, wall_ms, _ = spans[ROOT_SPAN]
    self_ms = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_t) in spans.items():
        layer = layer_of(name)
        if layer is None:
            print(f"  note: span {name} has no layer; counted as unattributed")
            layer = "unattributed"
        self_ms[layer] += self_t
    print(f"  self time per layer over {ops} ops, {wall_ms:.3f} ms of wall:")
    metrics = {}
    for layer in LAYERS:
        share = self_ms[layer] / wall_ms
        print(f"    {layer:<14} {self_ms[layer] / ops:12.4f} ms/op"
              f" {100 * share:8.2f} %")
        metrics[f"{layer}.self_share"] = share
    return metrics


def check_digest(workload, seed, seconds, digest):
    """Outputs of one seed must repeat exactly across runs in a checkout."""
    path = build_dir() / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{workload}/{seed}/{seconds}"
    if known.setdefault(key, digest) != digest:
        return f"outputs of {key} differ from an earlier run"
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return None


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tree = build(["mbta_perfbench", "mbta_trace"])
    work = build_dir() / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    trace_path = work / "trace.json"
    cmd = [str(tree / "mbta_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", str(work), "--result", str(result_path)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if not result_path.is_file():
        fail(f"{args.workload} exited with {code} and wrote no result")
    result = json.loads(result_path.read_text())
    errors = list(result["errors"])
    if code != 0 and not errors:
        errors.append(f"harness exited with {code}")
    digest_error = check_digest(args.workload, args.seed, args.seconds,
                                result["digest"])
    if digest_error:
        errors.append(digest_error)

    if args.trace:
        measured = {k: v["value"] for k, v in result["per_layer"].items()}
        measured.update(layer_report(self_times(tree / "mbta_trace",
                                                trace_path)))
        wanted = spec["per_layer"]
    else:
        measured = {k: v["value"] for k, v in result["end_to_end"].items()}
        wanted = spec["end_to_end"]
    unknown = set(measured) - {m["name"] for m in wanted}
    if unknown:
        errors.append("metrics missing from BENCHMARK.json: "
                      + ", ".join(sorted(unknown)))
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None and not args.trace:
            errors.append(f"metric {m['name']} was not measured")
        # A layer a workload does not use reads 0.
        metrics[m["name"]] = {"value": value or 0.0, "unit": m["unit"]}
    for e in errors:
        print(f"  error: {e}")
    print(json.dumps({"correct": not errors, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if not errors else 1


def self_test():
    tree = build(["perfbench_test"])
    return subprocess.run([str(tree / "perfbench_test")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
