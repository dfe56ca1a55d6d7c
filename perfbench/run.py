#!/usr/bin/env python3
"""PeerScope benchmark: build the benchmark binary from source, run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--save FILE]
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py compare BASE.json... --against NEW.json...

The binary is built with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the repository root. A run prints the binary's report
and, as its last stdout line, the JSON result. --save also writes the
result with its identity stamp, which `compare` reads. See README.md.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
WORKLOADS = ("paper_tables", "pplive_full_scale", "capture_replay")
# Identity fields that define the measured work; results that differ in
# any of them are not comparable.
WORKLOAD_IDENTITY = ("workload", "sim_seconds", "run_seconds", "threads",
                     "trace", "apps")
HOST_IDENTITY = ("build_type", "compiler", "nproc", "cpu_model",
                 "capture_fs")
EXIT_IDENTITY_MISMATCH = 3


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, BUILD)


def build():
    """Configures once, then builds incrementally; output to stderr."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j3"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def git_commit():
    """The checkout's commit, read from .git without leaving the tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_binary(binary, args):
    """Runs the binary; returns (stdout lines, identity, result)."""
    proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("perfbench exited with %d" % proc.returncode)
    identity = {}
    for line in lines:
        if line.startswith("identity "):
            identity = json.loads(line[len("identity "):])
            identity["git_commit"] = git_commit()
    return lines, identity, json.loads(lines[-1])


def measure(argv):
    import argparse
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--save", help="write identity + result to this file")
    a = p.parse_args(argv)
    binary = build()
    lines, identity, result = run_binary(binary, [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", a.trace])
    for line in lines[:-1]:
        if line.startswith("identity "):
            line = "identity " + json.dumps(identity, sort_keys=True)
        print(line)
    if a.save:
        with open(a.save, "w") as f:
            json.dump({"identity": identity, "result": result}, f, indent=1)
            f.write("\n")
    print(json.dumps(result), flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selftest():
    """At a tiny input: every registered metric is emitted with its unit
    in each mode, the unperturbed run verifies clean, and a perturbed
    reference digest raises the error rate."""
    spec = load_spec()
    expect = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    binary = build()
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            base = ["--workload", workload, "--seed", "42", "--seconds",
                    "0.1", "--sim-seconds", "20", "--trace", trace]
            _, _, result = run_binary(binary, base)
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expect[trace]:
                problems.append("%s trace=%s: metrics %s, expected %s" % (
                    workload, trace, sorted(got.items()),
                    sorted(expect[trace].items())))
            if not all(got.values()):
                problems.append("%s trace=%s: a metric has no unit" % (
                    workload, trace))
            if result["failed"] != 0 or not result["correct"]:
                problems.append("%s trace=%s: clean run failed %d/%d" % (
                    workload, trace, result["failed"], result["attempted"]))
            if trace == "1":
                continue
            _, _, bad = run_binary(binary, base + ["--perturb-digest"])
            before = result["failed"] / result["attempted"]
            after = bad["failed"] / bad["attempted"]
            if not (after > before and bad["correct"] is False):
                problems.append("%s: perturbed digest left error_rate at %g"
                                % (workload, after))
            print("selftest %s: error_rate %g clean, %g perturbed" % (
                workload, before, after))
    for p in problems:
        print("SELFTEST FAILED: " + p)
    print("selftest " + ("failed" if problems else "ok"))
    sys.exit(1 if problems else 0)


def compare(argv):
    """Median of each end-to-end metric, base vs new. Refuses (exit 3)
    results whose workload identity or seed set differ; warns when the
    host or build differs; exits 1 when a metric is worse than its
    bound."""
    if "--against" not in argv:
        fail("usage: compare BASE.json... --against NEW.json...", 2)
    cut = argv.index("--against")
    sides = [argv[:cut], argv[cut + 1:]]
    if not sides[0] or not sides[1]:
        fail("usage: compare BASE.json... --against NEW.json...", 2)
    loaded = []
    for files in sides:
        docs = []
        for name in files:
            with open(name) as f:
                docs.append(json.load(f))
        loaded.append(docs)
    ref = loaded[0][0]["identity"]
    for docs in loaded:
        for d in docs:
            for key in WORKLOAD_IDENTITY:
                if d["identity"].get(key) != ref.get(key):
                    fail("refusing to compare: %s %r != %r" % (
                        key, d["identity"].get(key), ref.get(key)),
                        EXIT_IDENTITY_MISMATCH)
    seeds = [sorted(d["identity"]["seed"] for d in docs) for docs in loaded]
    if seeds[0] != seeds[1]:
        fail("refusing to compare: seeds %s vs %s" % tuple(seeds),
             EXIT_IDENTITY_MISMATCH)
    for key in HOST_IDENTITY:
        values = {json.dumps(d["identity"].get(key))
                  for docs in loaded for d in docs}
        if len(values) > 1:
            print("WARNING: host/build differs in %s: %s" % (
                key, ", ".join(sorted(values))))
    spec = load_spec()
    metrics = spec["per_layer"] if ref.get("trace") else spec["end_to_end"]
    regressed = False
    print("%-36s %14s %14s %9s" % ("metric", "base", "new", "worse"))
    for m in metrics:
        med = [statistics.median(d["result"]["metrics"][m["name"]]["value"]
                                 for d in docs) for docs in loaded]
        sign = 1 if m["better"] == "lower" else -1
        worse = sign * (med[1] - med[0]) / med[0] if med[0] else 0.0
        flag = ""
        if "bound" in m and worse > m["bound"]:
            flag = "  REGRESSION (bound %g)" % m["bound"]
            regressed = True
        print("%-36s %14.6g %14.6g %+8.1f%%%s" % (
            m["name"], med[0], med[1], 100 * worse, flag))
    sys.exit(1 if regressed else 0)


def main():
    argv = sys.argv[1:]
    if argv == ["--selftest"]:
        selftest()
    elif argv[:1] == ["compare"]:
        compare(argv[1:])
    else:
        measure(argv)


if __name__ == "__main__":
    main()
