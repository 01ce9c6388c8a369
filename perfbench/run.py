"""Benchmark of the matchrobust CLI and library, one workload per run.

    python3 perfbench/run.py --workload small --seed 1729 --seconds 30 --trace 0

Each workload is a fixed, closed-loop job list (one job at a time, one
process, no extra threads) generated from ``--seed``.  The list is run in
rounds until ``--seconds`` have passed; a kind's time is the sum over its
jobs of each job's median time across rounds.  Job and set-up times are
scaled to a nominal host speed by a reference task timed while the jobs run
(see ``reference.py``).  Every output is checked, and at the default seed
compared with its recorded sha256.  ``--trace 1``
alternates untraced and traced rounds and reports per-layer metrics instead
of end-to-end ones.  The last line of standard output is one JSON object.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Fixed before numpy is first imported, so that BLAS runs on one thread.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import tracer  # noqa: E402
import workloads  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".bench_out"
DEFAULT_SEED = 1729
SETUP_PROBES = 7
#: Reference-task runs in each set-up interpreter, after its timed part.
SETUP_REFERENCE_RUNS = 5

# time.monotonic is CLOCK_MONOTONIC, one clock for every process, so the
# interpreter can time itself from the parent's spawn (argv[3]).
SETUP_PROBE = (
    "import json, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import matchrobust.cli as cli\n"
    "code = max(cli.main(list(a)) for a in json.loads(sys.argv[2]))\n"
    "elapsed = time.monotonic() - float(sys.argv[3])\n"
    "sys.path.insert(0, sys.argv[4])\n"
    "import reference\n"
    "print(json.dumps([elapsed, reference.median_time(int(sys.argv[5]))]))\n"
    "sys.exit(code)\n"
)
IMPORT_PROBE = (
    "import json, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import networkx\n"
    "t2 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import matchrobust.cli\n"
    "t3 = time.perf_counter()\n"
    "print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))\n"
)


class Refused(Exception):
    """The benchmark cannot measure the checkout's own program."""


def pin_program():
    """Import matchrobust from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import matchrobust
    except ImportError as exc:
        raise Refused(f"cannot import matchrobust from {src}: {exc}") from None
    where = Path(matchrobust.__file__).resolve()
    if not where.is_relative_to(src):
        raise Refused(f"matchrobust resolves to {where}, outside {src}")


def commit() -> str | None:
    """HEAD commit when the checkout is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(args) -> dict:
    import networkx
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "commit": commit(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


def probe(code: str, *argv: str) -> tuple[float, str]:
    """Run ``code`` in a fresh interpreter; wall time from spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stdout


class Runner:
    """Runs job lists and judges every execution's output.

    An execution fails if it raises, exits nonzero, produces bytes that
    differ from the job's first output, or whose first output fails the
    job's checks.  At the default seed the first output must also match the
    recorded golden digest.  With a ``reference``, the time its probes take
    during a job is left out of the job's time.
    """

    def __init__(self, jobs, outdir: Path, golden: dict | None, reference: Reference | None = None):
        self.jobs = jobs
        self.outdir = outdir
        self.golden = golden
        self.reference = reference
        self.first: dict[str, bytes] = {}
        self.verdicts: dict[str, str | None] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_job(self, job) -> tuple[float, float, bytes]:
        """Runs ``job``; returns its start on ``perf_counter``, its time and its output."""
        out = self.outdir / (job.id.replace("/", "_") + ".out")
        if job.argv is None:
            start = time.perf_counter()
            data = job.call()
            return start, time.perf_counter() - start, data
        cli = workloads.program("cli")
        start = time.perf_counter()
        code = cli.main([*job.argv, "--out", str(out)])
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return start, elapsed, out.read_bytes()

    def round(self, recorder=None) -> dict[str, tuple[float, float]]:
        """One pass over the job list; returns each successful job's start and time.

        With a ``recorder`` (a :class:`tracer.Tracer`) the jobs run with its
        wrappers installed, and the outputs are judged only after they are
        removed again.
        """
        times = {}
        outputs = {}
        if recorder:
            recorder.install()
        try:
            for job in self.jobs:
                self.attempted += 1
                if recorder:
                    recorder.job = job.id
                inside = self.reference.inside if self.reference else 0.0
                try:
                    start, elapsed, outputs[job.id] = self.run_job(job)
                    if self.reference:
                        elapsed -= self.reference.inside - inside
                    times[job.id] = (start, elapsed)
                except Exception as exc:  # a failing job is counted, not fatal
                    where = traceback.extract_tb(exc.__traceback__)[-1]
                    self.failures.append(
                        f"{job.id}: {type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"
                    )
        finally:
            if recorder:
                recorder.uninstall()
        for job in self.jobs:
            if job.id in outputs:
                error = self.judge(job, outputs[job.id], outputs)
                if error:
                    times.pop(job.id)
                    self.failures.append(f"{job.id}: {error}")
        return times

    def judge(self, job, data: bytes, outputs: dict) -> str | None:
        if job.id not in self.first:
            self.first[job.id] = data
            self.verdicts[job.id] = self.check(job, data, outputs)
        if data != self.first[job.id]:
            return "output differs from the job's first output"
        return self.verdicts[job.id]

    def check(self, job, data: bytes, outputs: dict) -> str | None:
        try:
            job.check(data, outputs)
        except workloads.CheckFailed as exc:
            return f"check failed: {exc}"
        except Exception as exc:  # a malformed output is a failed check
            return f"check raised {type(exc).__name__}: {exc}"
        if self.golden is not None and self.golden.get(job.id) != workloads.digest(data):
            return "sha256 differs from the golden digest"
        return None


def kind_times(jobs, rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per kind: sum over its jobs of the job's median time across rounds."""
    totals = dict.fromkeys(workloads.KINDS, 0.0)
    for job in jobs:
        samples = [r[job.id] for r in rounds if job.id in r]
        if samples:
            totals[job.kind] += statistics.median(samples)
    return totals


def elapsed_only(times: dict[str, tuple[float, float]]) -> dict[str, float]:
    return {job_id: elapsed for job_id, (_start, elapsed) in times.items()}


def end_to_end(args, runner, minimal) -> tuple[dict, dict]:
    """Set-up and round times, each scaled by the reference probes nearest to it.

    A set-up interpreter runs the reference task itself, right after its
    timed part, since it may run on another core than this process.
    """
    reference = runner.reference
    setups = []
    for _ in range(SETUP_PROBES):
        argv = (str(ROOT / "src"), json.dumps(minimal), repr(time.monotonic()), str(HERE), str(SETUP_REFERENCE_RUNS))
        setups.append(json.loads(probe(SETUP_PROBE, *argv)[1].splitlines()[-1]))
    setup = statistics.median(elapsed * NOMINAL_S / task_s for elapsed, task_s in setups)
    raw = []
    deadline = time.perf_counter() + args.seconds
    with reference.probing():
        while not raw or time.perf_counter() < deadline:
            raw.append(runner.round())
    rounds = [{job_id: reference.scale(*t) for job_id, t in times.items()} for times in raw]
    kinds = kind_times(runner.jobs, rounds)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (sum(kinds.values()), "s"),
        **{f"{kind}_s": (value, "s") for kind, value in kinds.items()},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    unscaled = kind_times(runner.jobs, [elapsed_only(times) for times in raw])
    counts = {
        "rounds": len(raw),
        "reference_probes": len(reference.times),
        "reference_median_s": statistics.median(reference.times),
        "unscaled_setup_s": statistics.median(elapsed for elapsed, _task_s in setups),
        "unscaled_wall_s": sum(unscaled.values()),
        "job_times": {job.id: [times.get(job.id, (None, None))[1] for times in raw] for job in runner.jobs},
    }
    return metrics, counts


def traced(args, runner, spans_path: Path) -> tuple[dict, dict]:
    imports = [json.loads(probe(IMPORT_PROBE, str(ROOT / "src"))[1]) for _ in range(SETUP_PROBES)]
    layered, walls = [], {False: [], True: []}
    spans = []
    deadline = time.perf_counter() + args.seconds
    while len(walls[True]) == 0 or time.perf_counter() < deadline:
        on = len(walls[False]) > len(walls[True])
        if not on:
            times = elapsed_only(runner.round())
        else:
            t = tracer.Tracer()
            times = elapsed_only(runner.round(t))
            spans = t.take()
            round_metrics = tracer.layer_metrics(spans)
            round_metrics.update(search_ratios(runner, spans))
            layered.append(round_metrics)
        walls[on].append(sum(kind_times(runner.jobs, [times]).values()))
    tracer.write_spans(spans, spans_path)
    metrics = {}
    for name in layered[0]:
        value = statistics.median(m[name] for m in layered)
        unit = "s" if name.endswith("_s") else ("ratio" if name.endswith("_ratio") else "count")
        metrics[name] = (value, unit)
    for i, name in enumerate(("numpy", "networkx", "matchrobust")):
        metrics[f"setup.import_{name}_s"] = (statistics.median(r[i] for r in imports), "s")
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {"rounds_untraced": len(walls[False]), "rounds_traced": len(walls[True])}


def search_ratios(runner, spans) -> dict[str, float]:
    """Useful-outcome ratios of the two search layers, for one traced round.

    A planar-search candidate is one ``rng_for`` call made directly by
    ``search_planar_representation``; it is rejected when its ordinal
    extraction or its induced utilities raise.
    """
    restarts = feasible = 0
    for job in runner.jobs:
        if job.name == "banach-search" and job.id in runner.first:
            out = json.loads(runner.first[job.id])
            restarts += out["restarts"]
            feasible += out["feasible_restarts"]
    candidates = rejected = 0
    for s in spans:
        parent = spans[s.parent].name if s.parent >= 0 else None
        if s.name == "seeding.rng_for" and parent == "planar.search_planar_representation":
            candidates += 1
        elif s.error and s.name in ("ordinal.ordinal_from_utility_flagged", "metric.utilities_from_space"):
            rejected += 1
    return {
        "embedding.banach.feasible_ratio": feasible / restarts,
        "planar.search.rejected_ratio": rejected / candidates,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help="record output digests (default seed only)")
    args = parser.parse_args(argv)

    try:
        pin_program()
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.write_golden and args.seed != DEFAULT_SEED:
        print("golden digests are recorded at the default seed only", file=sys.stderr)
        return 2
    golden = None
    if args.seed == DEFAULT_SEED and not args.write_golden:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        inputs, outdir = Path(tmp) / "inputs", Path(tmp) / "out"
        inputs.mkdir()
        outdir.mkdir()
        jobs = workloads.build_jobs(args.workload, args.seed, inputs)
        minimal = workloads.minimal_jobs(inputs)
        cli = workloads.program("cli")
        for argv_min in minimal:  # lazy first-use costs belong to setup_s, not to rounds
            if cli.main(list(argv_min)) != 0:
                print(f"warm-up job failed: {argv_min}", file=sys.stderr)
                return 1
        runner = Runner(jobs, outdir, golden, None if args.trace else Reference())
        tag = f"{args.workload}-seed{args.seed}"
        if args.trace:
            metrics, counts = traced(args, runner, WORK / f"spans-{tag}.csv")
        else:
            metrics, counts = end_to_end(args, runner, minimal)

    if args.write_golden:
        table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        table = {k: v for k, v in table.items() if not k.startswith(args.workload + "/")}
        table.update({job_id: workloads.digest(data) for job_id, data in runner.first.items()})
        GOLDEN.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")

    failed = len(runner.failures)
    record = {
        **environment(args),
        **counts,
        "attempted": runner.attempted,
        "failed": failed,
        "error_rate": failed / runner.attempted,
        "failures": runner.failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    facts = ("workload", "seed", "nproc", "commit", "OPENBLAS_NUM_THREADS", "python", "numpy", "networkx")
    print(" ".join(f"{k}={record[k]}" for k in (*facts, *counts) if k != "job_times"))
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6f} {unit}")
    print(f"{'error_rate':52s} {record['error_rate']:14.6f} ratio ({failed}/{runner.attempted} jobs)")
    if args.trace:
        print("no layer waits: one job at a time, one thread, no queue")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
