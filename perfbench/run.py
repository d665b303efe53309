"""Closed-loop benchmark of brakeindex jobs.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One client sends the next job only after the last returned.  A run
repeats whole cycles of its workload's job mix (see workloads.py) until
the measured time, plus half a cycle, reaches ``--seconds``, so every
run measures the stated mix and no partial cycle.  CLI jobs go through
``brakeindex.cli.main`` in this process on generated JSON documents;
generating the documents and checking every output against its oracle
happen outside the timed interval.  Every time reported is scaled to
a nominal host speed by a probe sampled while the jobs run (probe.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
cycle twice, untraced and then traced on the same documents, and prints
the per-layer metrics of the traced pass, with the tracing overhead as
the ratio of the two passes' job rates.  The last line of standard
output is the result object; the line before it records the machine,
the mix, every failure and every cross-layer law mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
# One BLAS thread, so that a job's time does not depend on how a BLAS
# thread pool shares a small machine's cores with the benchmark itself;
# the matrices here are small (at most a few hundred rows).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def _pin_environment():
    """Pin BLAS threads before numpy loads, and drop the CLI's BIT_*
    overrides so that jobs run at the default configuration."""
    os.environ.update(BLAS_ENV)
    for name in [k for k in os.environ if k.startswith("BIT_")]:
        del os.environ[name]


def _import_program():
    """Import brakeindex from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "brakeindex", "cli.py")):
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import brakeindex
    import brakeindex.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(brakeindex.__file__))) != SRC:
        print(f"benchmark: brakeindex imported from {brakeindex.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return brakeindex.cli


def _machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
    }


def setup_seconds():
    """Median over fresh interpreters of the time to import brakeindex and
    its CLI, at the probe's nominal host speed; returns (scaled, raw)."""
    from probe import NOMINAL_S, probe

    env = dict(os.environ, PYTHONPATH=SRC)
    scaled, raw = [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import brakeindex, brakeindex.cli"],
                       cwd=ROOT, env=env, check=True)
        elapsed = time.perf_counter() - t0
        after = probe()
        raw.append(elapsed)
        scaled.append(elapsed * NOMINAL_S / ((before[0] + after[0]) / 2.0))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def _run_cli(cli, command, text):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([command, "-"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _execute(cli, job, host, tracer=None):
    """Run one job; returns (start, end, seconds, cpu seconds, outcome).
    Start and end are perf_counter times; the two durations leave out the
    host-speed samples taken during the job.  Outcome is the report on
    success, else an error string."""
    if job.command is None:
        call = lambda: (0, job.payload())  # noqa: E731
    else:
        call = lambda: _run_cli(cli, job.command, job.payload)  # noqa: E731
    start, t0, c0 = time.perf_counter(), host.clock(), host.cpu_clock()
    error = None
    try:
        code, raw = call() if tracer is None else tracer.run_job(call)
    except Exception:  # the run goes on; the job counts as failed
        error = "raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]
    times = (start, time.perf_counter(), host.clock() - t0, host.cpu_clock() - c0)
    if error is not None:
        return times + (error,)
    if job.command is None:
        return times + (raw,)
    try:
        envelope = json.loads(raw)
    except json.JSONDecodeError as exc:
        return times + (f"exit {code}, output is not JSON: {exc}",)
    if code != 0:
        return times + (f"exit {code}: {envelope['error']}",)
    return times + (envelope["report"],)


class Tally:
    """Latencies, failures and law mismatches of one pass over the cycles.

    Each job's wall and CPU time is kept as measured and as scaled to the
    probe's nominal host speed (see probe.py)."""

    def __init__(self):
        self.latencies = []
        self.raw = []
        self.cpu = []
        self.raw_cpu = []
        self.by_slot = {}
        self.wall = 0.0
        self.failures = []
        self.laws = []

    def run_cycle(self, cli, jobs, host, tracer=None):
        """Run the jobs back to back while ``host`` samples the probe;
        returns their (scaled seconds, outcome) pairs."""
        with host.sampling():
            runs = [_execute(cli, job, host, tracer) for job in jobs]
        results = []
        for start, end, wall, cpu, outcome in runs:
            wall_scale, cpu_scale = host.scale(start, end)
            self.wall += wall
            self.raw.append(wall)
            self.raw_cpu.append(cpu)
            self.latencies.append(wall * wall_scale)
            self.cpu.append(cpu * cpu_scale)
            results.append((self.latencies[-1], outcome))
        return results

    def record(self, jobs, results, cycle, laws=True):
        """Check every output against its oracle."""
        for i, (job, (scaled, outcome)) in enumerate(zip(jobs, results)):
            self.by_slot.setdefault(job.slot, []).append(scaled)
            where = {"cycle": cycle, "job": i, "slot": job.slot}
            if isinstance(outcome, str):
                self.failures.append(dict(where, error=outcome))
                continue
            mismatches = job.check(outcome)
            if mismatches:
                self.failures.append(dict(where, error="; ".join(mismatches)))
            elif laws and job.law is not None:
                broken = job.law(outcome)
                if broken:
                    self.laws.append(dict(where, law="; ".join(broken)))

    def jobs_per_s(self):
        """Jobs per second of the mix: slots over the summed per-slot
        median of the scaled latencies."""
        return len(self.by_slot) / sum(statistics.median(v) for v in self.by_slot.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("flow", "paths", "orbit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_environment()
    cli = _import_program()
    import workloads
    from probe import NOMINAL_S, HostSpeed
    from spans import Tracer

    machine = _machine()
    setup, raw_setup = setup_seconds() if args.trace == 0 else (None, None)
    plain, traced = Tally(), Tally()
    host = HostSpeed()
    tracer = Tracer(clock=host.clock) if args.trace else None
    cycle = 0
    while True:
        jobs = workloads.cycle_jobs(args.workload, args.seed, cycle)
        plain.record(jobs, plain.run_cycle(cli, jobs, host), cycle)
        if tracer is not None:
            tracer.install()
            try:
                results = traced.run_cycle(cli, jobs, host, tracer)
            finally:
                tracer.uninstall()
            # same documents as the untraced pass, whose laws already ran
            traced.record(jobs, results, cycle, laws=False)
        cycle += 1
        spent = plain.wall + traced.wall
        if spent + spent / cycle / 2.0 >= args.seconds:
            break

    tallies = (plain, traced) if tracer is not None else (plain,)
    attempted = sum(len(t.latencies) for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    jobs_per_s = plain.jobs_per_s()
    if tracer is None:
        metrics = {
            "jobs_per_s": (jobs_per_s, "1/s"),
            "job_s_p50": (statistics.median(plain.latencies), "s"),
            "cpu_s_per_job": (statistics.fmean(plain.cpu), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup, "s"),
        }
    else:
        metrics = tracer.metrics()
        metrics["trace.jobs_per_s_ratio"] = (traced.jobs_per_s() / jobs_per_s, "1")
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "cycles": cycle,
        "measured_s": plain.wall,
        "slot_median_s": {slot: statistics.median(v) for slot, v in plain.by_slot.items()},
        "nominal_probe_s": NOMINAL_S, "probe_s_median": statistics.median(host.wall),
        "unscaled": {
            "jobs_per_s": len(plain.raw) / plain.wall,
            "job_s_p50": statistics.median(plain.raw),
            "cpu_s_per_job": statistics.fmean(plain.raw_cpu),
            "setup_s": raw_setup,
        },
        "jobs": len(plain.latencies), "fail_ratio": len(failures) / attempted,
        "failures": failures, "law_mismatches": [m for t in tallies for m in t.laws],
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
