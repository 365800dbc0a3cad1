#!/usr/bin/env python3
"""SysNoise performance benchmark: one command per workload run, plus a diff
of two result sets.

Run one workload (from the root of a source checkout):

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

The first run builds the library and the benchmark binary from src/ into
.bench_build/perfbench/ and trains the benchmark's own model zoo there; later
runs reuse both while the sources are unchanged. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer metrics
for --trace 1. Every run is also appended, with its context (zoo and stage
cache state, nproc, SIMD ISA, default backend), to a result set
(.bench_build/perfbench/results.jsonl unless --record names another file).

Compare two result sets:

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

prints every end-to-end metric per workload with its median and quartiles on
both sides, and names each per-layer metric whose change exceeds its own
run-to-run spread.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD = os.path.join(WORK, "build")
BINARY = os.path.join(BUILD, "sysnoise_perfbench")
CATALOG = os.path.join(HERE, "catalog.json")
SETUP_SPAWNS = 4  # extra set-up-only processes per run, for a median
BINARY_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def source_files():
    src = os.path.join(ROOT, "src")
    out = []
    for d, _, files in os.walk(src):
        out.extend(os.path.join(d, n) for n in files)
    return sorted(out)


def source_hash(files):
    h = hashlib.sha256()
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def build(jobs):
    os.makedirs(WORK, exist_ok=True)
    log_path = os.path.join(WORK, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(jobs)])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e), 1)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see %s)" % log_path, 1)


def run_binary(args, timeout=BINARY_TIMEOUT_S):
    """Run the benchmark binary; return its last stdout line parsed as JSON."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out after %ds: %s"
             % (timeout, " ".join(args)), 1)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("benchmark binary printed nothing (exit %d)" % proc.returncode, 1)
    try:
        out = json.loads(lines[-1])
    except ValueError:
        fail("benchmark binary printed no JSON result: %r" % lines[-1], 1)
    return proc.returncode, out


def prepare_state(digest):
    """The benchmark binary's state directory for this source tree, zoo trained."""
    state = os.path.join(WORK, "state-" + digest)
    for name in os.listdir(WORK):  # zoos trained from other sources
        if name.startswith("state-") and name != "state-" + digest:
            shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    if os.path.exists(os.path.join(state, "zoo", "perfbench_zoo.json")):
        return state, "warm (trained from this source tree by an earlier run)"
    rc, out = run_binary(["--state", state, "--prepare"], timeout=600)
    if rc != 0:
        fail("zoo training failed", 1)
    return state, "trained in this run (%.1f s)" % out["zoo_train_s"]


def measure(opts):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if opts.workload not in names:
        fail("unknown workload %r (have %s)" % (opts.workload, names))
    files = source_files()
    if not any(f.endswith(".cpp") for f in files):
        fail("no library sources under %s/src" % ROOT)
    jobs = max(1, min(4, os.cpu_count() or 1))
    build(jobs)
    state, zoo_state = prepare_state(source_hash(files))

    common = ["--state", state, "--workload", opts.workload,
              "--seed", str(opts.seed), "--seconds", str(opts.seconds),
              "--trace", str(opts.trace)]
    rc, out = run_binary(common + ["--t0", repr(time.monotonic())])
    setups = [out["setup_s"]]
    for _ in range(0 if opts.trace else SETUP_SPAWNS):
        _, s = run_binary(common + ["--setup-only",
                                    "--t0", repr(time.monotonic())])
        setups.append(s["setup_s"])

    measured = {
        "setup_s": statistics.median(setups),
        "latency_ms": out["latency_ms"],
        "throughput_per_s": out["throughput_per_s"],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    if opts.trace:
        # A layer the workload does not exercise reads 0.
        wanted, source = bench["per_layer"], out["layers"]
        unknown = set(source) - {m["name"] for m in wanted}
        if unknown:
            fail("benchmark binary reported unknown per-layer metrics %s"
                 % sorted(unknown), 1)
    else:
        wanted, source = bench["end_to_end"], measured
    metrics = {m["name"]: {"value": source.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}

    correct = bool(out["correct"]) and rc == 0
    context = dict(out["context"], zoo=zoo_state, setup_samples_s=setups,
                   run_seconds=opts.seconds)
    record = {"workload": opts.workload, "seed": opts.seed,
              "trace": opts.trace, "time": time.time(), "correct": correct,
              "attempted": out["attempted"], "failed": out["failed"],
              "problems": out["problems"], "context": context,
              "end_to_end": measured, "layers": out.get("layers", {})}
    record_path = opts.record or os.path.join(WORK, "results.jsonl")
    os.makedirs(os.path.dirname(os.path.abspath(record_path)), exist_ok=True)
    with open(record_path, "a") as f:
        f.write(json.dumps(record) + "\n")

    for p in out["problems"]:
        print("perfbench: CHECK FAILED: " + p, file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


# --------------------------------------------------------------------------
# --compare
# --------------------------------------------------------------------------

def load_records(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def series(records, workload, trace, key, name):
    return [r[key][name] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and name in r[key]]


def compare(path_a, path_b):
    bench = load_benchmark()
    catalog = {}
    if os.path.exists(CATALOG):
        with open(CATALOG) as f:
            catalog = json.load(f)
    moves = {m["name"]: m.get("moves", "")
             for m in catalog.get("per_layer", [])}

    def moves_of(name):
        if name.startswith("nn.forward_ms."):
            name = "nn.forward_ms.<model>.<backend>"
        return "; moves " + moves[name] if moves.get(name) else ""

    a, b = load_records(path_a), load_records(path_b)
    fmt = "{:<18} {:>14} {:>26} {:>26} {:>9}  {}"
    for w in bench["workloads"]:
        name = w["name"]
        print("== %s: %s" % (name, w["why"]))
        print(fmt.format("metric", "unit", "A median [q1, q3] n",
                         "B median [q1, q3] n", "change", "verdict"))
        for m in bench["end_to_end"]:
            va = series(a, name, 0, "end_to_end", m["name"])
            vb = series(b, name, 0, "end_to_end", m["name"])
            if not va or not vb:
                print(fmt.format(m["name"], m["unit"], "-", "-", "-",
                                 "no runs on one side"))
                continue
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if m["better"] == "lower" else -change
            spread = max((qa[2] - qa[0]) / qa[1] if qa[1] else 0.0,
                         (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0)
            lower = m["better"] == "lower"
            b_always_better = (max(vb) < min(va)) if lower else (
                min(vb) > max(va))
            if worse > m["bound"]:
                verdict = "WORSE beyond bound %.2f" % m["bound"]
            elif b_always_better:
                verdict = "better in every run"
            elif spread > m["bound"]:
                verdict = "unresolved (spread %.2f > bound)" % spread
            else:
                verdict = "within bound %.2f" % m["bound"]
            cell = "{:.4g} [{:.4g}, {:.4g}] {}"
            print(fmt.format(m["name"], m["unit"],
                             cell.format(qa[1], qa[0], qa[2], len(va)),
                             cell.format(qb[1], qb[0], qb[2], len(vb)),
                             "%+.1f%%" % (100 * change), verdict))
        moved = []
        for m in bench["per_layer"]:
            va = series(a, name, 1, "layers", m["name"])
            vb = series(b, name, 1, "layers", m["name"])
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            spread = max(qa[2] - qa[0], qb[2] - qb[0])
            if abs(qb[1] - qa[1]) > spread:
                moved.append((m, qa, qb, len(va), len(vb)))
        if moved:
            print("  per-layer metrics whose change exceeds their "
                  "run-to-run spread:")
            for m, qa, qb, na, nb in moved:
                better = (qb[1] < qa[1]) == (m["better"] == "lower")
                print("    %-44s %.4g -> %.4g %s (n=%d/%d, %s)%s" % (
                    m["name"], qa[1], qb[1], m["unit"], na, nb,
                    "better" if better else "worse", moves_of(m["name"])))
        else:
            print("  no per-layer metric moved beyond its spread "
                  "(or no traced runs on both sides)")
        print()
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="result-set file to append this run to")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="diff two result-set files")
    opts = p.parse_args()
    if opts.compare:
        return compare(*opts.compare)
    if not opts.workload:
        p.error("--workload or --compare is required")
    if opts.seconds < 1:
        p.error("--seconds must be at least 1")
    return measure(opts)


if __name__ == "__main__":
    sys.exit(main())
