#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload scale-100k|paper-medium|chaos-3way \
        [--seed 2016] [--seconds 10] [--trace 0|1]

It builds `perfbench/` (a package of its own) in release mode, then runs the
workload in fresh `perfbench` processes, one per sample, until `--seconds`
of measuring have passed (at least one sample). A sample works through the
workload's worlds (the first from the seed, the rest derived from it): it
builds each world several times (set-up time), runs the main call on it once
untraced and checks the output. The sample's wall time is the sum over its
worlds, and its peak RSS (`VmHWM`) that of its own process.

With `--trace 0` the last stdout line holds the end-to-end metrics (medians
over the samples); with `--trace 1` it holds the per-layer metrics of one
traced run, whose spans are written to `perfbench/out/` as a Chrome trace.
Lines before it are a human-readable summary and the run's provenance.
Exits non-zero without a result line if the build or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = 2
DEFAULT_SEED = 2016
# Per-process limit; a whole run must end within 180 s.
CHILD_TIMEOUT_S = 170

WORKLOADS = ["scale-100k", "paper-medium", "chaos-3way"]

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sessions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    """Builds the benchmark binary; returns its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build failed ({proc.returncode})")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    return os.path.join(target, "release", "perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def provenance(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "seed": seed,
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": command_output(["rustc", "--version"]),
    }


def child(binary, args, env):
    """Runs one perfbench process; returns its JSON result line."""
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)}: timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{' '.join(args)}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checks_of(results):
    checks = [c for r in results for c in r["checks"]]
    return len(checks), sum(1 for c in checks if not c["pass"])


def end_to_end(binary, env, a):
    base = ["run", "--workload", a.workload, "--seed", str(a.seed), "--size", a.size]
    samples = []
    started = time.monotonic()
    while not samples or time.monotonic() - started < a.seconds:
        samples.append(child(binary, base, env))
    attempted, failed = checks_of(samples)
    # Time only runs whose checks all passed (all runs if none did).
    timed = [s for s in samples if all(c["pass"] for c in s["checks"])] or samples
    values = {
        "setup_s": statistics.median(t for s in timed for t in s["setup_s"]),
        "wall_s": statistics.median(s["wall_s"] for s in timed),
        "sessions_per_s": statistics.median(s["sessions"] / s["wall_s"] for s in timed),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
    }
    print(f"{a.workload}: {len(samples)} sample(s) of {samples[0]['worlds']} world(s), "
          f"seed {a.seed}, {THREADS} threads, "
          f"sessions {samples[0]['sessions']}, digest {samples[0]['digest']}")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {values[name]:>14.4f} {unit}")
    print(f"  {'failed_ratio':<16} {failed / attempted:>14.4f} ratio ({failed} of {attempted} checks)")
    for c in samples[0]["checks"]:
        if not c["pass"]:
            print(f"  FAILED check: {c['name']}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return attempted, failed, metrics


def per_layer(binary, env, a):
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    chrome = os.path.join(out_dir, f"trace-{a.workload}-seed{a.seed}.json")
    args = ["trace", "--workload", a.workload, "--seed", str(a.seed), "--size", a.size,
            "--chrome", chrome]
    result = child(binary, args, env)
    attempted, failed = checks_of([result])
    print(f"{a.workload}: traced run, seed {a.seed}, digest {result['digest']}, "
          f"Chrome trace {os.path.relpath(chrome, ROOT)}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.4f} {m['unit']}")
    return attempted, failed, result["metrics"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny runs a few sessions per workload (the benchmark's own test)")
    a = p.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["PSCP_THREADS"] = str(THREADS)
    env.pop("PSCP_TRACE", None)
    binary = build(env)
    print("provenance: " + json.dumps(provenance(a.seed), sort_keys=True))
    measure = per_layer if a.trace else end_to_end
    attempted, failed, metrics = measure(binary, env, a)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
