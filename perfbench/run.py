"""Benchmark of the shearstab package: one workload, one seed, one run.

    python3 perfbench/run.py --workload {spectra,contour,series,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in fresh worker processes with BLAS pinned to
one thread.  Set-up (a fresh interpreter through ``import shearstab`` and
one warm-up task of each kind) is repeated in separate processes and its
median reported; the last worker then runs the workload's task list as a
closed loop, one task at a time, for ``--seconds``.

Task times are reported in reference seconds: each call is divided by the
machine's speed factor over that call, sampled by a fixed probe that does
not call the package (``calibrate.py``).  Shared hosts drift in speed by up
to 2x over seconds to minutes; the factor cancels that drift and leaves the
package's own speed.  The plain wall times and the factors are printed and
recorded alongside.  Set-up time is in reference seconds too, but by
another factor: set-up is a fresh process, mostly start-up and imports,
so it is divided by the time of a reference process run right before and
after it (``refproc.py``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (spans recorded around every public function and library kernel) and
the tracing overhead.  Every line but the last is for people: the machine,
the libraries, each task's median time and misses, and every metric with
its unit.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and a full record of the
run go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import refproc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0


def _spawn_worker(args, phase, env, out_dir, extra, deadline):
    """Run one worker; return (seconds to READY, RESULT dict or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--phase", phase, "--out", out_dir, *extra]
    start = time.perf_counter()
    # a session of its own, so that a kill also reaches the CLI processes it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True)
    kill = lambda: os.killpg(proc.pid, signal.SIGKILL)  # noqa: E731
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    timer.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY"):
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
    if proc.returncode != 0 or ready is None or (phase == "run" and result is None):
        raise RuntimeError(f"worker ({phase}) exited with code {proc.returncode}")
    return ready, result


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit}


def _median_sum(samples: dict, names) -> float:
    return sum(statistics.median(samples[n]) for n in names if samples[n])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="reduced task list (smoke check)")
    ap.add_argument("--ref-scale", type=float, default=1.0,
                    help="scale every reference value (smoke check of the oracles)")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "shearstab", "__init__.py")):
        print(f"perfbench: no package source at {src}/shearstab", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # pin BLAS and OpenMP before numpy loads in the workers
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    extra = (["--tiny"] if args.tiny else []) + ["--ref-scale", repr(args.ref_scale)]

    deadline = time.monotonic() + TIME_LIMIT_S
    repeats = SETUP_REPEATS if args.trace == 0 else 1
    # reference processes between the set-ups, none while the last worker runs the workload
    setups, setups_raw, refs = [], [], []
    try:
        for i in range(repeats):
            refs.append(refproc.time_reference(env))
            ready, result = _spawn_worker(args, "run" if i == repeats - 1 else "setup", env, out_dir, extra, deadline)
            setups_raw.append(ready)
        for i, ready in enumerate(setups_raw):
            around = refs[i:i + 2]
            setups.append(ready / (sum(around) / len(around) / refproc.REF_S))
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    samples = result["samples"]
    n_samples = sum(len(v) for v in samples.values())
    if args.trace == 0:
        metrics = {
            "wall_s": (_median_sum(samples, samples), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "pass_frac": (1.0 - result["fail_frac"], "ratio"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "call_p50_s": (result["call_p50_s"], "s"),
        }
    else:
        layers = dict(result["layers"])
        layers["cli.import_s"] = result["import_s"]
        groups = result["groups"]
        for metric in spec["per_layer"]:
            key = metric["name"]
            if key.startswith("cli.") and key.endswith(".wall_s"):
                sub = key[len("cli."):-len(".wall_s")]
                layers[key] = _median_sum(samples, [n for n, g in groups.items() if g == sub])
        layers["trace.untraced_wall_s"] = result["untraced_wall_s"]
        layers["trace.traced_wall_s"] = result["traced_wall_s"]
        layers["trace.overhead_s"] = result["traced_wall_s"] - result["untraced_wall_s"]
        layers["calibration.probe_s"] = result["probe_s"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: (layers[k], units[k]) for k in units}

    machine = _machine()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print("libraries " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    print("closed loop, one client, one task at a time; times in reference seconds, measured in brackets")
    raw = result["raw"]
    for name, vals in samples.items():
        med = statistics.median(vals) if vals else float("nan")
        med_raw = statistics.median(raw[name]) if raw[name] else float("nan")
        print(f"task {name:28s} median {med:9.4f} s ({med_raw:9.4f} s)  samples {len(vals):3d}  "
              f"misses {result['misses'][name]}"
              + (f"  ({result['errors'][name]})" if name in result["errors"] else ""))
    factors = [f for v in result["factors"].values() for f in v]
    print(f"attempted {result['attempted']}  known-defect misses {result['missed_known']}  "
          f"other misses {result['missed']}  call samples {n_samples}  setups {len(setups)}")
    print(f"measured pass {_median_sum(raw, raw):.4f} s; {result['probes']} probes, median "
          f"{result['probe_s'] * 1e3:.3f} ms; speed factor per call from {min(factors):.3f} to {max(factors):.3f}")
    print(f"measured set-up {' '.join(f'{v:.3f}' for v in setups_raw)} s; reference processes "
          f"{' '.join(f'{v:.3f}' for v in refs)} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")

    record = {"args": vars(args), "machine": machine, "libraries": result["env"], "setups_s": setups,
              "setups_measured_s": setups_raw, "setup_references_s": refs,
              "result": result, "metrics": {k: v for k, (v, _) in metrics.items()}}
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": result["missed"] == 0,
        "attempted": result["attempted"],
        "failed": result["missed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
