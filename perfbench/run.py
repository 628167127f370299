#!/usr/bin/env python3
"""Build rdfmesh and the serving-path benchmark, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lookup|scan --seed N \
        --seconds S --trace 0|1

Builds `rdfmesh` and `perfbench/` in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), then runs the benchmark binary, which starts three
`rdfmesh serve` processes, drives the workload over HTTP and checks every
answer. The last line of stdout is the JSON result; see perfbench/README.md.
Exits non-zero, without a result line, if anything fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
BENCH_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when the checkout is a repository, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs
        )
        for p in paths:
            if "/target/" in p:
                continue
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def cargo(args, env):
    proc = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"cargo {' '.join(args)} failed ({proc.returncode})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["lookup", "scan"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    # A SIGTERM ends the run through the `finally` below, like any other exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for needed in ["Cargo.toml", os.path.join("src", "bin", "rdfmesh.rs"), os.path.join("perfbench", "Cargo.toml")]:
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of an rdfmesh checkout")

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cargo(["build", "--release", "--offline", "-q", "--bin", "rdfmesh"], env)
    cargo(["build", "--release", "--offline", "-q", "--manifest-path", os.path.join("perfbench", "Cargo.toml")], env)
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip() or "unknown"

    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace,
        "--rdfmesh", os.path.join(target, "release", "rdfmesh"),
        "--work", work, "--commit", source_id(), "--rustc", rustc,
    ]
    # Its own process group, so the serve processes it starts can be
    # killed together whatever way it ends.
    bench = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = bench.wait(timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(bench.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        bench.wait()
        subprocess.run(["rm", "-rf", work])
    if code is None:
        fail(f"benchmark did not finish within {BENCH_TIMEOUT_S} s")
    if code != 0:
        fail(f"benchmark exited with {code}")


if __name__ == "__main__":
    main()
