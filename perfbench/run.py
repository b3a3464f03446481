#!/usr/bin/env python3
"""Served-query benchmark entry point.

Run from the root of a tfree checkout:

    python3 perfbench/run.py --workload hot-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Builds bin/main.exe (the tfree CLI, whose `serve` subcommand is the daemon
under test) and perfbench/perfbench.exe from source into .bench_build/, then
runs the benchmark executable, whose stdout passes through unchanged: its
last line is the JSON result.  The benchmark runs in its own process group;
whatever way this script ends, the group is killed, so no daemon outlives a
run.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True

BUILD_DIR = os.path.join(".bench_build", "dune")
TARGETS = ["./bin/main.exe", "./perfbench/perfbench.exe"]
SOURCES = ["dune-project", "bin/main.ml", "lib/wire/service.mli", "perfbench/dune"]
WORKLOADS = ["hot-mix", "chatty", "cold-build"]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Build the daemon and the benchmark; return their paths or None."""
    missing = [p for p in SOURCES if not os.path.isfile(p)]
    if missing:
        log("not a tfree checkout (missing %s)" % ", ".join(missing))
        return None
    # CI reaches the toolchain through opam; an interactive shell has it on PATH
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        log("neither dune nor opam found on PATH")
        return None
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = dune + ["build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR), "--profile", "release"]
    # dune's own output goes to stderr: stdout carries only the result
    if subprocess.call(cmd + TARGETS, stdout=sys.stderr, env=env) != 0:
        log("build failed")
        return None
    exe = os.path.join(BUILD_DIR, "default")
    return os.path.join(exe, "bin", "main.exe"), os.path.join(exe, "perfbench", "perfbench.exe")


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def pin():
    """Confine the benchmark, and the daemon it forks, to one CPU.

    Client and daemon take turns in a closed loop, so one CPU loses no
    parallelism; it saves a cross-CPU wake-up per message, and the run no
    longer depends on which of two unequally loaded vCPUs the scheduler
    picked for each process.  The last allowed CPU is taken because the
    first tends to field more of the machine's interrupts."""
    os.sched_setaffinity(0, {pinned_cpu()})


def pinned_cpu():
    return max(os.sched_getaffinity(0))


def run_group(cmd, capture=False):
    """Run cmd in its own process group; return (exit status, stdout or None).

    SIGINT/SIGTERM/SIGHUP are forwarded as SIGTERM (the benchmark then
    stops its daemon itself); on the way out the whole group is SIGKILLed,
    which catches a daemon whose parent died without cleaning up."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None, text=True,
                            start_new_session=True, preexec_fn=pin)

    def forward(signum, _frame):
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass

    for s in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(s, forward)
    try:
        try:
            out, _ = proc.communicate(timeout=170)
            return proc.returncode, out
        except subprocess.TimeoutExpired:
            log("benchmark overran its time limit")
            forward(signal.SIGTERM, None)
            try:
                proc.communicate(timeout=3)
            except subprocess.TimeoutExpired:
                pass
            return 1, None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true", help="tiny sizes, every workload, both modes")
    a = p.parse_args()
    if not a.self_check and a.workload is None:
        p.error("--workload is required")
    if a.seconds <= 0:
        p.error("--seconds must be positive")
    built = build()
    if built is None:
        return 2
    tfree, bench = built
    if a.self_check:
        from selfcheck import self_check

        return self_check(WORKLOADS,
                          lambda args: run_group([bench, "--tfree", tfree, "--tiny"] + args, capture=True))
    print("perfbench: pinned to cpu %d; %d of %d cpus available" % (
        pinned_cpu(), len(os.sched_getaffinity(0)), os.cpu_count()), flush=True)
    return run_group([bench, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                      "--trace", str(a.trace), "--tfree", tfree, "--commit", commit()])[0]


if __name__ == "__main__":
    sys.exit(main())
