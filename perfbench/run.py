#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload t11_paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the libraries from
src/) into .bench_build/ (or $CARGO_TARGET_DIR, relative to the root);
later calls rebuild only what changed. The result goes to
stdout: a line with the host fingerprint, the sample count of every
metric and any failed checks, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end_to_end list of BENCHMARK.json, with --trace 1
the per_layer list; the traced run also writes its spans as Chrome
trace-event JSON under the build directory. Exits nonzero when the
build fails, a correctness check fails or a listed metric is missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# An untraced run takes about 30-35 s on the baseline host (README, "Run
# time") and the longest, the traced t11_oracle run, about 60 s; 170 s
# leaves 2.8x headroom for that one and stays within the 180 s a run may
# take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once, then builds the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr,
                      stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "perfbench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build(), "--selftest"]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out_dir = os.path.join(build_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        cmd += ["--trace-out", os.path.join(out_dir, stem + ".trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark program printed no result (exit code {proc.returncode})")
    raw = json.loads(lines[-1])

    metrics, samples, missing = {}, {}, []
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
        samples[m["name"]] = got["samples"]
    raw["host"]["git_commit"] = git_commit()
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(raw, f, indent=1)

    failed = raw["failed"] + (1 if missing else 0)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "host": raw["host"],
                      "samples": samples, "failures": raw["failures"],
                      "missing_metrics": missing}))
    print(json.dumps({"correct": raw["correct"] and not missing,
                      "attempted": max(1, raw["attempted"]), "failed": failed,
                      "metrics": metrics}))
    if missing:
        fail("missing or mis-united metrics: " + ", ".join(missing))
    sys.exit(0 if proc.returncode == 0 and raw["correct"] else 1)


if __name__ == "__main__":
    main()
