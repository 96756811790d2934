#!/usr/bin/env python3
"""Builds the Railgun benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload replicated-payments --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first run compiles the program (the
sbt build at the root) and the driver (perfbench/build.sbt) and records the
runtime classpath; later runs reuse it while the sources are unchanged. The
driver's output ends with one JSON line: the answer check and the metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = BENCH / ".build"
WORK = BENCH / ".work"
WORKLOADS = ("replicated-payments", "misaligned-windows", "failover")
# One fixed heap, so GC behaviour does not depend on the machine's memory.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch"]
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 720


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files():
    """Every file the build reads from the checkout, in a stable order."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", ROOT / "jobs", BENCH / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def source_hash():
    h = hashlib.sha256()
    for p in source_files():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = ["-Dsbt.offline=true", "-Xmx2g"]
    repos = Path.home() / ".sbt" / "repositories"
    if repos.is_file():
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(opts)
    return env


def build(digest):
    """Compiles program and driver when the sources changed; returns the classpath."""
    stamp, cp_file = BUILD / "source.sha256", BUILD / "classpath.txt"
    if stamp.is_file() and cp_file.is_file() and stamp.read_text() == digest:
        return cp_file.read_text()
    BUILD.mkdir(exist_ok=True)
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
         "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, env=sbt_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=BUILD_LIMIT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or os.pathsep not in lines[-1]:
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed")
    cp_file.write_text(lines[-1].strip())
    stamp.write_text(digest)
    return lines[-1].strip()


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if the file is there."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    entries = json.loads(spec.read_text())["per_layer" if trace else "end_to_end"]
    return {m["name"] for m in entries}


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "none"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
        return head.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources next to {BENCH.name}/; run from a full checkout")
    if shutil.which("sbt") is None or shutil.which("java") is None:
        fail("sbt and java must be on PATH")

    digest = source_hash()
    classpath = build(digest)

    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    cmd = (["java"] + JVM_FLAGS +
           [f"-Dperfbench.commit={git_commit()}", f"-Dperfbench.source={digest}",
            "-cp", classpath, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", str(work)])
    limit = max(10.0, RUN_LIMIT_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {limit:.0f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        fail("driver printed no result line")
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        sys.stdout.write(proc.stdout)
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ declared)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
