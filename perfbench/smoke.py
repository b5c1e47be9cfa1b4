"""Smoke check of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs the reduced task list
untraced and traced, and confirms that each run prints every metric named
in BENCHMARK.json with its unit.  It then reruns each workload with every
reference value scaled by 1.001 and confirms that the miss share rises, so
the oracles are not vacuous.  Last, it confirms that the benchmark exits
with an error, printing no result, where the package source is missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*extra, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    doc = None
    if lines:
        try:
            doc = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, doc


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        base = ["--workload", wl, "--seed", "7", "--seconds", "0.1", "--tiny"]
        shares = {}
        for trace in (0, 1):
            code, doc = run(*base, "--trace", str(trace))
            if code != 0 or doc is None:
                problems.append(f"{wl} trace {trace}: exit {code}, no result")
                continue
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])
                problems.append(f"{wl} trace {trace}: missing {missing} extra {extra} wrong unit {wrong}")
            if not doc["correct"] or doc["attempted"] < 1:
                problems.append(f"{wl} trace {trace}: correct={doc['correct']} attempted={doc['attempted']}")
            if trace == 0:
                shares["right"] = doc["metrics"]["pass_frac"]["value"]
        code, doc = run(*base, "--trace", "0", "--ref-scale", "1.001")
        if code != 0 or doc is None:
            problems.append(f"{wl} wrong reference: exit {code}, no result")
        elif not doc["metrics"]["pass_frac"]["value"] < shares.get("right", 0.0):
            problems.append(f"{wl}: a wrong reference left the pass share at {doc['metrics']['pass_frac']['value']}")
        print(f"smoke {wl}: done", flush=True)

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, doc = run("--workload", "spectra", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or doc is not None:
        problems.append(f"without the package source: exit {code}, result {doc}")

    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
