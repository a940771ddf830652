#!/usr/bin/env python3
"""Benchmark of the AutoComp reproduction.

    python3 perfbench/run.py --workload <cab|plan|fleet> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the repository's main
sources together with the benchmark's JVM harness (perfbench/build.sbt, sbt
offline, Spark jars from $SPARK_HOME/jars); later runs reuse that build until
a source file changes. The harness writes its raw result into a scratch
directory under perfbench/.runs/, which is deleted when the run ends. This
script checks the result, prints a run record line and, as the last line of
standard output, the JSON result: end-to-end metrics with --trace 0,
per-layer metrics (from spans) with --trace 1. The spans of the last traced
run of each workload are kept in perfbench/out/<workload>.spans.jsonl.

Exits non-zero without a result when the sources are missing, the build or
the run fails, or the arithmetic self-test (test_stats.py) fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402

SOURCES = [os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src"),
           os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
TARGET = os.path.join(HERE, "target")
DEADLINE_S = 170
BUILD_DEADLINE_S = 850

# Module opens Spark needs on JDK 17 (as in the repository's build.sbt).
JAVA_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    *(f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")),
    "--add-opens=java.security.jgss/sun.security.krb5=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandleAccessor=false",
]
HEAP = "3g"


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build(digest):
    """Compile with sbt unless the last build used the same sources; returns
    the runtime classpath and the seconds the build took."""
    stamp, cp_file = os.path.join(TARGET, "build.stamp"), os.path.join(TARGET, "classpath.txt")
    if os.path.exists(stamp) and os.path.exists(cp_file):
        with open(stamp) as f:
            if f.read().strip() == digest:
                with open(cp_file) as g:
                    return g.read().strip(), 0.0
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g", "-XX:-UsePerfData"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts[:0] = ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    log("building (sbt writeClasspath)")
    t0 = time.time()
    subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"], cwd=HERE,
                   env=env, stdout=sys.stderr, stderr=sys.stderr, stdin=subprocess.DEVNULL,
                   timeout=BUILD_DEADLINE_S, check=True)
    built_s = time.time() - t0
    log(f"built in {built_s:.1f} s")
    with open(stamp, "w") as f:
        f.write(digest)
    with open(cp_file) as g:
        return g.read().strip(), built_s


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    result = unittest.TextTestRunner(stream=open(os.devnull, "w"), verbosity=0).run(suite)
    if not result.wasSuccessful():
        for _, tb in result.failures + result.errors:
            log(tb)
        raise SystemExit("arithmetic self-test failed")


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_jvm(classpath, args, run_dir, timeout):
    # A fixed-size heap and the stop-the-world parallel collector: with G1's
    # heap resizing and concurrent cycles, on a shared 4-vCPU VM, plan pass
    # times drifted in phases of seconds and their median moved by 25%
    # between runs.
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={os.path.join(run_dir, 'tmp')}", *JAVA_OPENS,
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", run_dir]
    os.makedirs(os.path.join(run_dir, "tmp"))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                            stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise SystemExit(f"benchmark JVM exited with {code}")


def main():
    start = time.time()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["cab", "plan", "fleet"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        raise SystemExit(f"no repository sources under {ROOT}/src/main/scala")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    self_test()
    digest = source_digest()
    classpath, built_s = build(digest)

    run_dir = os.path.join(HERE, ".runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        # A run that builds gets the build's time on top of its deadline.
        run_jvm(classpath, args, run_dir, DEADLINE_S + built_s - (time.time() - start))
        with open(os.path.join(run_dir, "result.json")) as f:
            raw = json.load(f)
        spans = []
        if args.trace:
            spans_file = os.path.join(run_dir, "spans.jsonl")
            with open(spans_file) as f:
                spans = [json.loads(line) for line in f]
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            shutil.copy(spans_file, os.path.join(HERE, "out", f"{args.workload}.spans.jsonl"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        values = stats.per_layer(raw, spans, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = stats.end_to_end(raw)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    failed_checks = [c for c in raw["checks"] if not c["ok"]]
    record = dict(raw["record"])
    record.update({
        "git_sha": git_sha(), "source_sha256": digest,
        "samples": {k: stats.quantiles(v) for k, v in raw["samples"].items()},
        "setup_reps_s": raw["setup_reps_s"], "setup_once_s": raw["setup_once_s"],
        "measured_s": raw["values"]["measured_s"],
        "checks": len(raw["checks"]), "failed_checks": failed_checks,
        "known_defects": raw["defects"],
        "failure_ratio": stats.failure_ratio(raw["failed"], raw["attempted"]),
        **stats.pass_breakdown(spans),
    })
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


if __name__ == "__main__":
    main()
