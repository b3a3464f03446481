"""The benchmark's own test: every workload at tiny sizes, in both modes.

Runs through `python3 perfbench/run.py --self-check` in a few seconds and
asserts that each run exits 0, reports correct replies with no failures,
and emits exactly the metrics BENCHMARK.json names for its mode, each with
its declared unit and a finite value; and that BENCHMARK.json names no
workload the benchmark does not run.
"""

import json
import math


def self_check(workloads, run):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = ["BENCHMARK.json names unknown workload %s" % w["name"]
                for w in bench["workloads"] if w["name"] not in workloads]
    for workload in workloads:
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            rc, out = run(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace)])
            lines = (out or "").strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append("%s: no JSON result line (exit %s)" % (label, rc))
                continue
            if rc != 0 or result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: exit %s, correct=%s, failed=%s, attempted=%s"
                                % (label, rc, result["correct"], result["failed"], result["attempted"]))
            metrics = result["metrics"]
            for name, unit in declared[trace].items():
                m = metrics.get(name)
                if m is None:
                    problems.append("%s: metric %s missing" % (label, name))
                elif m.get("unit") != unit:
                    problems.append("%s: metric %s has unit %r, declared %r" % (label, name, m.get("unit"), unit))
                elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
                    problems.append("%s: metric %s has value %r" % (label, name, m.get("value")))
            for name in metrics:
                if name not in declared[trace]:
                    problems.append("%s: metric %s is not declared" % (label, name))
            print("self-check: %-26s %d metrics, %d queries" % (label, len(metrics), result["attempted"]))
    for p in problems:
        print("self-check: FAILED: " + p)
    print("self-check: " + ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1
