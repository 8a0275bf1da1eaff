#!/usr/bin/env python3
"""Builds and runs the CoRM node benchmark.

    python3 perfbench/run.py --workload kv-read-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload kv-churn-overlap --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark compiles the CoRM libraries from
src/ together with the nodebench sources in perfbench/src into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload (or each of BENCHMARK.json's in turn with --workload all), prints a table of every
metric with its unit and sample count, and prints as a workload's last line
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics. The exit code is non-zero when a correctness check
failed, the build is unoptimised or sanitized, or a metric is missing.
kv-churn-overlap is a probe, not a benchmark workload: it shows the known
defects listed in perfbench/layers.json as failed ops. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds nodebench; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise SystemExit("perfbench: cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "nodebench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(out, "nodebench")


def source_digest():
    """sha256 over the sources the binary is built from (the checkout the
    benchmark runs in is not always a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def run_binary(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns the binary's JSON report and exit code."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.dirname(binary)]
    if tiny:
        cmd.append("--tiny")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {workload} printed no report (exit {r.returncode})")
    return json.loads(lines[-1]), r.returncode


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    return spec, layers


def missing_metrics(report, wanted):
    """Names in `wanted` (BENCHMARK.json entries) absent from the report or
    emitted with another unit."""
    got = report["metrics"]
    return [m["name"] for m in wanted
            if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]


def print_table(report, contract):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  window {report['window_s']:.3f} s")
    print(f"build {json.dumps(report['build'])}")
    print(f"provenance {json.dumps(report['provenance'])}")
    print(f"params {json.dumps(report['params'])}")
    print(f"outcomes {json.dumps(report['outcomes'])}")
    for c in report["checks"]:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']} {c['detail']}")
    print(f"{'metric':<40} {'value':>16} {'unit':<12} {'samples':>10}")
    for name, m in report["metrics"].items():
        mark = "" if name in contract else "  (reported only)"
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']:<12} "
              f"{m['samples']:>10}{mark}")


def run_workload(binary, spec, workload, args):
    """Runs one workload, prints its table and result line; True if correct."""
    report, code = run_binary(binary, workload, args.seed, args.seconds, args.trace)
    report["provenance"] = {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(os.path.dirname(binary), f"report-{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    contract = {m["name"] for m in wanted}
    print_table(report, contract)
    if not report["build"]["optimized"] or report["build"]["sanitizer"]:
        raise SystemExit("perfbench: refusing to publish results of an "
                         "unoptimised or sanitizer build")
    missing = missing_metrics(report, wanted)
    if missing:
        raise SystemExit(f"perfbench: metrics missing or with the wrong unit: {missing}")
    line = {
        "correct": bool(report["correct"]) and code == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": report["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line), flush=True)
    return line["correct"]


def bench(args):
    spec, layers = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    known = names + list(layers["probe_workloads"])
    if args.workload != "all" and args.workload not in known:
        raise SystemExit(f"perfbench: unknown workload {args.workload}; one of {known} or all")
    binary = build()
    chosen = names if args.workload == "all" else [args.workload]
    ok = [run_workload(binary, spec, w, args) for w in chosen]
    return 0 if all(ok) else 1


def self_test():
    """Tiny runs of every workload, traced and untraced: every metric in
    BENCHMARK.json and layers.json is emitted with its unit, and the
    outcome reconciliation and correctness checks hold."""
    spec, layers = load_spec()
    binary = build()
    problems = []
    layer_metrics = [m for layer in layers["layers"] for m in layer["metrics"]]
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in layer_metrics:
        if name not in per_layer:
            problems.append(f"layers.json names {name}, BENCHMARK.json does not")
    names = [w["name"] for w in spec["workloads"]] + list(layers["probe_workloads"])
    for workload in names:
        for trace in (0, 1):
            report, code = run_binary(binary, workload, 1, 1, trace, tiny=True)
            where = f"{workload} trace {trace}"
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for name in missing_metrics(report, wanted):
                problems.append(f"{where}: {name} missing or wrong unit")
            for name in layers["reported_end_to_end"]:
                if name not in report["metrics"]:
                    problems.append(f"{where}: {name} missing")
            for c in report["checks"]:
                if not c["ok"]:
                    problems.append(f"{where}: check {c['name']} failed {c['detail']}")
            if code != 0 or not report["correct"]:
                problems.append(f"{where}: not correct (exit {code})")
            total = sum(o["attempted"] for o in report["outcomes"].values())
            if total != report["attempted"]:
                problems.append(f"{where}: outcomes sum {total} != attempted")
            log(f"self-test {where}: {report['attempted']} ops, "
                f"{report['failed']} failed, {len(report['metrics'])} metrics")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit(f"perfbench: no CoRM sources under {ROOT}/src")
    if args.self_test:
        return self_test()
    if not args.workload:
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
