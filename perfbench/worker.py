"""One workload process of the benchmark (started by ``run.py``).

    python perfbench/worker.py --workload W --seed S --seconds X --trace T
                               --phase {setup,run} --out DIR [--tiny] [--ref-scale F]

The process imports the package, builds the workload's seeded inputs and
runs one warm-up task of each kind, then prints ``READY``: the launcher
times set-up from its own spawn of the process to that line.  With
``--phase setup`` it stops there.  With ``--phase run`` it runs the task
list as a closed loop, one task at a time, for ``--seconds``, and prints
``RESULT <json>`` as its last line.  With ``--trace 1`` the timed phase is
split: half untraced, then one traced pass over the task list.

In the timed phase a machine-speed sampler (``calibrate.py``) runs, and
each call's time is kept both as measured and in reference seconds.  In
the traced pass its probes run inside the spans too: per-layer busy and
self times include them (about 1 ms in every 50 ms).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import warnings


def _import_package() -> float:
    start = time.perf_counter()
    import shearstab.cli  # noqa: F401
    return time.perf_counter() - start


def run_task(task, tracer=None):
    """Time one call of ``task.run`` and check its output; never raises.

    Returns the call's start, its wall time, whether its output met the
    oracle, and the error, if any.
    """
    start = time.perf_counter()
    try:
        out = task.run() if tracer is None else tracer.call("task." + task.name, task.run)
        error = None
    except Exception as exc:  # a failing task is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    ok = False
    if error is None:
        if tracer is not None:  # the oracle's own calls are not part of the trace
            tracer.enabled = False
        try:
            ok = bool(task.check(out))
        except Exception as exc:  # a check that cannot read the output is a miss
            error = f"check {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.enabled = True
    return start, elapsed, ok, error


class Record:
    """Calls, attempts and misses per task.

    After ``finish`` (with the sampler stopped), ``raw`` holds each call's
    wall time as measured, less the probes that ran inside it, and
    ``samples`` the same time in reference seconds.
    """

    def __init__(self, tasks, sampler):
        self.tasks = tasks
        self.sampler = sampler
        self.calls = {t.name: [] for t in tasks}
        self.raw = {t.name: [] for t in tasks}
        self.samples = {t.name: [] for t in tasks}
        self.factors = {t.name: [] for t in tasks}
        self.misses = {t.name: 0 for t in tasks}
        self.errors: dict[str, str] = {}

    def call(self, task, tracer=None):
        start, elapsed, ok, error = run_task(task, tracer)
        self.sampler.after_call()
        self.calls[task.name].append((start, elapsed))
        if not ok:
            self.misses[task.name] += 1
            if error:
                self.errors[task.name] = error

    def last(self, name) -> float:
        """Wall time of the task's last call."""
        return self.calls[name][-1][1]

    def finish(self):
        """Scale every call by the sampler's speed factor over it."""
        for name, calls in self.calls.items():
            for start, elapsed in calls:
                factor, probing = self.sampler.window(start, start + elapsed)
                self.raw[name].append(elapsed - probing)
                self.samples[name].append((elapsed - probing) / factor)
                self.factors[name].append(factor)

    def wall_s(self) -> float:
        """Warm wall time of one pass in reference seconds: the sum of per-task medians."""
        return sum(statistics.median(s) for s in self.samples.values() if s)

    def summary(self) -> dict:
        return {
            "samples": self.samples,
            "raw": self.raw,
            "factors": self.factors,
            "misses": self.misses,
            "errors": self.errors,
            "groups": {t.name: t.group for t in self.tasks},
        }


def harrell_davis_median(values) -> float:
    """Harrell-Davis estimate of the median: a beta-weighted mean of the order statistics.

    With a dozen values the plain median is one of them, and jumps when two
    of them swap places; this estimate moves smoothly.
    """
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    a = b = (n + 1) / 2.0
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n))


def counts(records) -> dict:
    """Attempts, misses of known-defect tasks, and all other misses."""
    known = {t.name for t in records[0].tasks if t.known_defect}
    out = {"attempted": 0, "missed_known": 0, "missed": 0}
    for r in records:
        for name, calls in r.calls.items():
            out["attempted"] += len(calls)
            out["missed_known" if name in known else "missed"] += r.misses[name]
    return out


def miss_share(records) -> float:
    """Mean over tasks of each task's share of attempts that missed.

    Per task, so that a partial last pass does not shift the share.
    """
    names = records[0].calls
    return statistics.mean(
        sum(r.misses[n] for r in records) / sum(len(r.calls[n]) for r in records) for n in names)


def one_pass(tasks, record, tracer=None):
    for task in tasks:
        record.call(task, tracer)


def closed_loop(tasks, seconds, record):
    """Run passes over ``tasks`` for ``seconds``, at least one.

    After the first pass a task starts only if its last run would still
    end within ``seconds``: a long task cannot stretch the run, and the
    time left after it is spent on the tasks that still fit.
    """
    start = time.perf_counter()
    one_pass(tasks, record)
    ran = True
    while ran:
        ran = False
        for task in tasks:
            if time.perf_counter() - start + record.last(task.name) <= seconds:
                record.call(task)
                ran = True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "run"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--ref-scale", type=float, default=1.0)
    args = ap.parse_args()

    import_s = _import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calibrate
    import tasks as taskmod
    import tracing

    warnings.simplefilter("ignore")
    ctx = taskmod.Context(args.seed, ref_scale=args.ref_scale)
    workload = taskmod.BUILDERS[args.workload](ctx)
    for warm in workload.warmup:
        warm()
    print("READY", flush=True)
    if args.phase == "setup":
        return 0

    task_list = [t for t in workload.tasks if t.tiny] if args.tiny else workload.tasks
    # one CPU for the timed phase, the CLI children included, so that the
    # sampler always probes the CPU the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = calibrate.ProcessSampler(dict(os.environ)) if args.workload == "cli" else calibrate.Sampler()
    record = Record(task_list, sampler)
    result = {"import_s": import_s}
    if args.trace == 0:
        sampler.start()
        closed_loop(task_list, args.seconds, record)
        sampler.stop()
        record.finish()
        # each task weighs the same, however many samples it got
        result["call_p50_s"] = harrell_davis_median(
            [statistics.median(v) for v in record.samples.values() if v])
        result["fail_frac"] = miss_share([record])
        result.update(counts([record]))
    else:
        sampler.start()
        closed_loop(task_list, args.seconds / 2.0, record)
        traced = Record(task_list, sampler)
        tracer = tracing.Tracer()
        tracer.install()
        stats_dir = os.path.join(args.out, f"cli-stats-{args.workload}-seed{args.seed}")
        if args.workload == "cli":
            shutil.rmtree(stats_dir, ignore_errors=True)
            os.makedirs(stats_dir)
            ctx.cli_stats_dir = stats_dir
        tracer.enabled = True
        one_pass(task_list, traced, tracer)
        tracer.enabled = False
        sampler.stop()
        record.finish()
        traced.finish()
        ctx.cli_stats_dir = None
        parts = [(tracer.layer_stats(), tracer.counters)]
        if args.workload == "cli":
            for name in sorted(os.listdir(stats_dir)):
                with open(os.path.join(stats_dir, name), encoding="utf-8") as fh:
                    doc = json.load(fh)
                parts.append((doc["stats"], doc["counters"]))
        stats, counters = tracing.merge_stats(parts)
        tracer.dump(os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        result["layers"] = tracing.layer_metrics(stats, counters)
        result["layers"]["fail_frac"] = miss_share([record, traced])
        result.update(counts([record, traced]))
        record.errors.update(traced.errors)
        result["untraced_wall_s"] = record.wall_s()
        result["traced_wall_s"] = traced.wall_s()
    result["probe_s"] = statistics.median(sampler.costs)
    result["probes"] = len(sampler.costs)

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result.update(record.summary())
    result["env"] = environment()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def environment() -> dict:
    """Library versions as loaded in this process."""
    import platform

    import numpy
    import scipy
    import sympy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy has no dict mode; the record says unknown
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "sympy": sympy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


if __name__ == "__main__":
    sys.exit(main())
