#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Run it from the root of a checkout. For every workload in BENCHMARK.json
it makes one untraced and one traced run of perfbench/run.py at
--scale tiny and checks that:

  - the last line of stdout is a valid result object (exactly the keys
    correct / attempted / failed / metrics, whole-number counts, finite
    values) and every drain passed the correctness gate;
  - the untraced run prints every end_to_end metric of BENCHMARK.json,
    and the traced run every per_layer metric, each with its unit;
  - the traced run wrote a Chrome trace-event file;
  - a run against a deliberately perturbed digest pin reports failed
    drains and correct = false.

Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--scale", "tiny", "--seconds", "1", "--trace",
           str(trace)] + list(extra)
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}")
    return out.stdout


def parse_result(stdout):
    result = json.loads(stdout.rstrip("\n").split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"result keys {sorted(result)}"
    assert isinstance(result["correct"], bool)
    for key in ("attempted", "failed"):
        assert isinstance(result[key], int) and result[key] >= 0, key
    assert result["attempted"] >= 1
    assert result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, f"{name}: {metric}"
        assert isinstance(metric["value"], (int, float)) and \
            math.isfinite(metric["value"]), f"{name}: {metric}"
    return result


def check_metrics(result, declared, label):
    printed = result["metrics"]
    names = [m["name"] for m in declared]
    assert sorted(printed) == sorted(names), \
        f"{label}: printed {sorted(set(printed) ^ set(names))} mismatch"
    for m in declared:
        assert printed[m["name"]]["unit"] == m["unit"], \
            f"{label}: {m['name']} unit {printed[m['name']]['unit']}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in (w["name"] for w in bench["workloads"]):
        try:
            result = parse_result(run(w, 0))
            assert result["correct"], f"{w}: failed drains"
            check_metrics(result, bench["end_to_end"], f"{w} trace 0")

            stdout = run(w, 1)
            result = parse_result(stdout)
            assert result["correct"], f"{w}: failed drains (traced)"
            check_metrics(result, bench["per_layer"], f"{w} trace 1")
            trace_line = [l for l in stdout.split("\n")
                          if l.startswith("trace: ")]
            assert trace_line, f"{w}: no trace file reported"
            with open(trace_line[0].split()[1]) as f:
                events = json.load(f)["traceEvents"]
            assert events and all(e["ph"] == "X" for e in events)

            result = parse_result(run(w, 0, "--perturb-digest"))
            assert not result["correct"] and result["failed"] > 0, \
                f"{w}: a perturbed digest pin did not trip the gate"
            print(f"ok   {w}")
        except (AssertionError, ValueError, KeyError, OSError) as err:
            failures += 1
            print(f"FAIL {w}: {err}")
    print("smoke: " + ("all checks passed" if failures == 0
                       else f"{failures} workload(s) failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
