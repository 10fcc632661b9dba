#!/usr/bin/env python3
"""ringlower benchmark: timed or traced runs of one workload.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 50 --trace 0

Run from the root of a ringlower checkout; the program is imported from
``src/``.  One client issues jobs back to back (closed loop, one process,
one thread).  A job is one ``ringlower.cli.main(argv)`` call with stdout and
stderr captured.  The job list is made from the seed and repeated in
cycles until ``--seconds`` of job time have passed, finishing the cycle
under way.  Every job's output is checked: against the workload's
reference on its first run, against that checked output after that.
A job's time in a run is its best (lowest) time over its repeats; the
timings are figures over those best times.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run that alternates plain and traced cycles.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run are written to
``.bench_out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5  # at least; an untraced run also times the import after every cycle
CPU_CHECK_S = 0.1  # see FastestCpu
MIN_JOBS = 100  # job runs a run holds at least

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("output_terms", "terms"),
]


# The program is always the one in this checkout, never an installed copy.
if not os.path.isfile(os.path.join(SRC, "ringlower", "cli.py")):
    sys.exit(f"perfbench: no ringlower sources in {SRC}")
sys.path[:0] = [SRC, HERE]

import ringlower  # noqa: E402
from tracer import PER_LAYER, Tracer, combine, counters_repeat, self_shares  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, call, output_terms  # noqa: E402

if not os.path.abspath(ringlower.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: imported ringlower from {ringlower.__file__}, not from {SRC}")


def _import_seconds() -> float:
    """Interpreter start-up plus the import a ``ringlower`` command pays
    before ``main`` runs, in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import ringlower.cli"], env=env, cwd=ROOT,
                   check=True, timeout=60)
    return perf_counter() - start


def _loop_seconds() -> float:
    """Time of a fixed pure-Python loop of about 0.2 ms."""
    start = perf_counter()
    total = 0
    for i in range(4000):
        total += i * i % 7
    return perf_counter() - start


class FastestCpu:
    """Keeps this process on whichever of its CPUs runs a fixed loop
    fastest at the moment, checked at most every CPU_CHECK_S.  On a
    shared host each virtual CPU slows down by 1.5 to 1.8 times, for
    seconds at a time, independently of the others.  Does nothing with
    one CPU, or with more than eight (checking them would cost more than
    it saves)."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.active = 2 <= len(self.cpus) <= 8
        self.checked = float("-inf")

    def settle(self) -> None:
        if not self.active or perf_counter() - self.checked < CPU_CHECK_S:
            return
        os.sched_setaffinity(0, {min(self.cpus, key=self._loop_on)})
        self.checked = perf_counter()

    def _loop_on(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return min(_loop_seconds() for _ in range(3))

    def release(self) -> None:
        if self.active:
            os.sched_setaffinity(0, set(self.cpus))


class Run:
    """One workload run: set-up, then cycles over the job list.
    ``workload`` is a workload name, or a callable that makes a workload
    from its working directory."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, jobs=None,
                 min_jobs: int = MIN_JOBS, hard_stop: float | None = None):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        make = WORKLOADS[workload] if isinstance(workload, str) else workload
        self.work_dir = os.path.join(OUT, f"run-{seed}-{os.getpid()}")
        self.workload = make(self.work_dir)
        # Tiny runs in the self-test keep only the first jobs, need fewer
        # and are never cut.
        self.job_limit = jobs
        self.min_jobs = min_jobs
        self.hard_stop = (4 if trace else 2) * seconds if hard_stop is None else hard_stop
        self.checked: dict[int, tuple] = {}  # job index -> (outcome signature, reason)
        self.terms: dict[int, int] = {}
        self.latencies: dict[int, list[float]] = {}  # job index -> its times
        self.traced_latencies: dict[int, list[float]] = {}  # the same, in traced cycles
        self.attempted = 0
        self.prepares: list[float] = []
        self.imports: list[float] = []
        self.cpu = FastestCpu()
        self.failures: list[tuple[int, str]] = []

    # -- set-up -----------------------------------------------------------------

    def prepare(self) -> list:
        """Make the inputs and gadget configs, timed.  Every call makes the
        same jobs and files."""
        os.makedirs(self.work_dir, exist_ok=True)
        self.cpu.settle()
        start = perf_counter()
        jobs = self.workload.prepare(self.seed)
        self.prepares.append(perf_counter() - start)
        return jobs[: self.job_limit] if self.job_limit else jobs

    def time_import(self) -> None:
        self.cpu.settle()
        self.imports.append(_import_seconds())

    # -- checking -------------------------------------------------------------------

    def judge(self, index: int, outcome) -> str | None:
        """Failure reason for one job run, or None.  The first run of each
        job is checked against the workload's reference; later runs must
        repeat its output exactly."""
        if outcome.failure:
            return f"{outcome.failure}: {outcome.err.strip()[-300:]}"
        signature = (outcome.rc, outcome.out, outcome.err)
        if index in self.checked:
            seen, reason = self.checked[index]
            return reason if seen == signature else "output differs from an earlier run of the same job"
        job = self.jobs[index]
        rng = random.Random(f"{self.workload.name}/{self.seed}/check/{index}")
        try:
            reason = self.workload.check(job, outcome, rng)
            if outcome.out.strip():
                self.terms[index] = output_terms(outcome.out)
        except Exception as exc:  # an unreadable output is the program's failure
            reason = f"output check raised {type(exc).__name__}: {exc}"
        self.checked[index] = (signature, reason)
        return reason

    # -- cycles -------------------------------------------------------------------------

    def cycle(self, tracer=None) -> tuple[float, bool]:
        """Run the job list once; (job seconds, finished).  Stops early,
        unfinished, once the run's job time reaches the hard stop."""
        outcomes = []
        spent = 0.0
        if tracer is not None:
            tracer.install()
            tracer.begin_cycle()
        try:
            for index, job in enumerate(self.jobs):
                if tracer is not None:
                    tracer.job = index
                self.cpu.settle()
                outcome = call(job.argv)
                outcomes.append((index, outcome))
                spent += outcome.seconds
                if self.busy + spent >= self.hard_stop:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.busy += spent
        # Checking comes after the cycle, so it is neither timed nor traced.
        times = self.latencies if tracer is None else self.traced_latencies
        for index, outcome in outcomes:
            times.setdefault(index, []).append(outcome.seconds)
            self.attempted += 1
            reason = self.judge(index, outcome)
            if reason is not None:
                self.failures.append((index, reason))
        return spent, len(outcomes) == len(self.jobs)

    def run(self) -> dict:
        """Cycles until ``seconds`` of job time and at least MIN_JOBS jobs.
        A traced run alternates plain and traced cycles and needs one
        finished cycle of each.  A run whose jobs hang stops unfinished at
        twice its time (four times when traced); a job it never reached
        fails at the job limit.  An untraced run makes its inputs
        SETUP_REPEATS times and times the import before the first cycle
        and after every cycle, so that the set-up medians span the run."""
        self.jobs = self.prepare()
        self.time_import()
        setups = 1 if self.trace else SETUP_REPEATS
        self.busy = 0.0
        tracer = Tracer() if self.trace else None
        plain: list[float] = []
        traced: list[dict] = []
        partial = None  # a traced cycle cut by the hard stop
        cycles = 0
        while True:
            traced_cycle = self.trace and cycles % 2 == 1
            spent, finished = self.cycle(tracer if traced_cycle else None)
            cycles += 1
            if traced_cycle:
                summary = tracer.end_cycle()
                if finished:
                    traced.append(summary)
                else:
                    partial = summary
            elif finished:
                plain.append(spent)
            done = self.busy >= self.seconds and self.attempted >= self.min_jobs
            if self.trace:
                done = done and traced and plain
            if done or not finished or self.busy >= self.hard_stop:
                break
            if not self.trace:
                self.time_import()
                if len(self.prepares) < setups:
                    self.prepare()
        while len(self.prepares) < setups:
            self.prepare()
        while len(self.imports) < setups:
            self.time_import()
        for index in range(len(self.jobs)):
            if index not in self.latencies:
                self.latencies[index] = [workloads.JOB_LIMIT_S]
                self.attempted += 1
                self.failures.append((index, "not reached before the run's hard stop"))
        result = {
            "cycles": cycles,
            "distinct_jobs": len(self.jobs),
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "setup_s": statistics.median(self.prepares) + statistics.median(self.imports),
            "busy_s": self.busy,
            "output_terms": sum(self.terms.values()),
            "latencies": self.latencies,
        }
        if self.trace:
            result["spans"] = tracer.spans
            result["job_kind"] = lambda index: job_kind(self.jobs[index].argv)
            result["traced_cycle_finished"] = bool(traced)
            summaries = traced or ([partial] if partial else [])
            result["per_layer"] = None
            if summaries and plain:
                # Best traced time over best plain time, summed over jobs.
                both = [i for i in self.traced_latencies if i in self.latencies]
                overhead = (
                    sum(min(self.traced_latencies[i]) for i in both)
                    / sum(min(self.latencies[i]) for i in both) - 1.0
                )
                result["per_layer"] = combine(summaries, overhead)
                result["counters_repeat"] = counters_repeat(summaries)
        return result


def job_kind(argv: list[str]) -> str:
    """``compile --target conj``, ``find-gadgets``, ...: the command and its target."""
    return " ".join(argv[:1] + argv[argv.index("--target"):][:2] if "--target" in argv else argv[:1])


def end_to_end(result: dict) -> dict:
    """The timings are over each distinct job's best time in the run: on a
    shared host a job's slower repeats measure the other guests."""
    attempted = result["attempted"]
    best = [min(times) for times in result["latencies"].values()]
    p90 = statistics.quantiles(best, n=10)[8] if len(best) > 1 else best[0]
    values = {
        "setup_s": result["setup_s"],
        "jobs_per_s": len(best) / sum(best),
        "job_p50_ms": statistics.median(best) * 1000.0,
        "job_p90_ms": p90 * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - result["failed"]) / attempted,
        "output_terms": result["output_terms"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(result: dict) -> dict:
    values = result["per_layer"]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def write_spans(path: str, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, job in spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def execute(workload, seed: int, seconds: float, trace: bool, **tiny) -> tuple[dict, dict]:
    """(raw result, the JSON object printed as the last line)."""
    bench = Run(workload, seed, seconds, trace, **tiny)
    try:
        result = bench.run()
    finally:
        bench.cpu.release()
        shutil.rmtree(bench.work_dir, ignore_errors=True)
    metrics = per_layer(result) if trace else end_to_end(result)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return result, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    result, line = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload} seed {args.seed}: {result['attempted']} jobs in {result['cycles']} "
          f"cycles of {result['distinct_jobs']}, {result['busy_s']:.2f} s of job time; "
          f"timings over the best times of {result['distinct_jobs']} distinct jobs")
    for index, reason in result["failures"][:10]:
        print(f"  FAILED job {index}: {reason}")
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
        write_spans(path, result["spans"])
        values = result["per_layer"]
        if values is None:
            print("perfbench: no finished plain cycle or no traced cycle", file=sys.stderr)
            return 1
        if not result["traced_cycle_finished"]:
            print("  NOTE: the traced cycle was cut by the hard stop; its counts are partial")
        shares = {k.split(".")[1]: v for k, v in values.items() if k.endswith(".self_share")}
        top = max(shares, key=shares.get)
        print(f"  largest self-time layer: {top} ({shares[top]:.1%}); tracing overhead "
              f"{values['trace.overhead_frac']:+.1%}; counters repeat across traced cycles: "
              f"{result['counters_repeat']}; spans in {os.path.relpath(path, ROOT)}")
        for kind, layers in sorted(self_shares(result["spans"], result["job_kind"]).items()):
            ranked = sorted(layers.items(), key=lambda item: -item[1])
            print(f"  self-time shares on {kind} jobs: "
                  + ", ".join(f"{layer} {share:.1%}" for layer, share in ranked if share >= 0.005))
    for name, metric in line["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
