#!/usr/bin/env python3
"""Repo benchmark: build the flare library and the perfbench driver from
this checkout, run one workload in its own single-threaded process, and
print the result as the last stdout line.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

--trace 0 reports every end-to-end metric of BENCHMARK.json; --trace 1 runs
the traced step loop and reports every per-layer metric (0 for a layer the
workload never enters).  The build lives in $CARGO_TARGET_DIR (default
.bench_build) under the checkout.  perfbench/layers.json says which
workloads each layer must report on (a per-layer metric belongs to the layer
its name starts with) and holds the default and held-out seeds.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def run(cmd, timeout, stderr):
    """Runs `cmd` in its own process group and waits for it; on timeout the
    whole group (compilers under make, say) is killed and reaped."""
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=stderr, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    return proc.returncode, out, err


def run_logged(cmd, timeout):
    """Runs a build step; its output goes to stderr on failure."""
    code, out, _ = run(cmd, timeout, subprocess.STDOUT)
    if code != 0:
        sys.stderr.write(out[-8000:])
        fail(f"failed ({code}): {' '.join(map(str, cmd))}")


def configured_source(out):
    """The source directory a build directory was configured for, if any."""
    cache = out / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1])
    return None


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a flare checkout (no CMakeLists.txt or src/)")
    source = configured_source(out)
    if source is not None and source.resolve() != HERE:
        # Configured for another checkout: reusing it would build and
        # measure that checkout's sources.
        (out / "CMakeCache.txt").unlink()
        shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
        source = None
    if source is None:
        run_logged(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
               BUILD_TIMEOUT_S)
    return out / "perfbench"


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    return spec, layers


def required_layer_metrics(spec, layers, workload):
    """Per-layer metrics the traced run of `workload` must itself report:
    those of every layer whose reported_on names it."""
    mine = {layer["layer"] for layer in layers["layers"]
            if workload in layer["reported_on"]}
    return [m["name"] for m in spec["per_layer"]
            if m["name"].split(".", 1)[0] in mine]


def main():
    spec, layers = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    seeds = layers["seeds"]
    ap.add_argument("--seed", type=int, default=seeds["default"],
                    help=f"workload seed (held-out seed: {seeds['held_out']})")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, stdout, stderr = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    if code != 0 or not lines:
        fail(f"perfbench exited {code}")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = raw["metrics"]
    unknown = sorted(set(got) - set(units))
    if unknown:
        fail(f"metrics not in BENCHMARK.json: {unknown}")
    required = (required_layer_metrics(spec, layers, args.workload)
                if args.trace else list(units))
    missing = sorted(set(required) - set(got))
    if missing:
        fail(f"{args.workload} did not report {missing}")

    correct = bool(raw["correct"])
    if not args.trace and any(got[n] <= 0 for n in units):
        print("perfbench: an end-to-end metric read <= 0", file=sys.stderr)
        correct = False

    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: {"value": got.get(n, 0.0), "unit": u}
                    for n, u in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
