#!/usr/bin/env python3
"""Build the repository benchmark and simd from this checkout, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload charz-grid --seed 1 --seconds 20 --trace 0

Workloads: charz-grid, predictor-synth, sweeps-service; "--workload all"
runs the three in turn, each in its own process. The last line of a
workload's standard output is its JSON result; build output goes to
standard error.
Everything the build and the run write stays under .bench_build/ in the
checkout (Go build cache included).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("charz-grid", "predictor-synth", "sweeps-service")


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "cmd", "simd"))):
        print("perfbench: the repository sources are not beside perfbench/;"
              " run from the root of a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    bin_dir = os.path.join(BUILD, "bin")
    simd = os.path.join(bin_dir, "simd")
    bench = os.path.join(bin_dir, "perfbench")
    for cmd, cwd in (
        (["go", "build", "-buildvcs=false", "-o", simd, "./cmd/simd"], ROOT),
        (["go", "build", "-buildvcs=false", "-o", bench, "."], HERE),
    ):
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return r.returncode
    commit = ""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True)
        lines = r.stdout.split()
        # Only a repository rooted at this checkout names its commit.
        if r.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except OSError:
        pass
    sys.stdout.flush()
    os.chdir(ROOT)
    base = [bench, "-root", ROOT, "-simd", simd, "-commit", commit]
    args = sys.argv[1:]
    if "all" not in args:
        os.execv(bench, base + args)
    for name in WORKLOADS:
        run_args = [name if a == "all" else a for a in args]
        r = subprocess.run(base + run_args)
        if r.returncode != 0:
            return r.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
