"""knowspan benchmark: seeded corpora through the public CLI, one process at a time.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload is a closed loop with one
client: the benchmark starts one ``python3 -m knowspan.cli`` process, waits
for it, and only then starts the next.  Child BLAS/OpenMP threads are pinned
to 1.  The program receives only the generated corpus and CLI flags a user
could pass.

A benchmark invocation pins itself and its children to one CPU and

1. sets the workload up ``SETUPS`` times (generate the corpus, then run any
   CLI stages that precede the timed part) and reports the median as
   ``setup_s``;
2. repeats the workload's timed CLI processes until ``--seconds`` would be
   exceeded (at least once), reporting the median summed wall time as
   ``wall_s`` and the median largest child peak RSS as ``peak_rss_mb``;
   both times are scaled to reference machine speed by ``SpeedProbe``;
3. checks every timed run (``checks.py``): a run fails on a nonzero exit, a
   structured-error line, a missing artifact, an oracle mismatch, or output
   bytes that differ between the runs of one seed;
4. with ``--trace 1``, runs the timed part once more through ``tracer.py``
   and reports per-layer figures instead of the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a results file with the run's
details and environment is written under ``perfbench/.work/results``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUPS = 3  # set-ups per invocation; setup_s is their median
PROCESS_TIMEOUT_S = 150
CORPUS = "corpus.jsonl"
# Pinned in this process before numpy loads, and in every child process.
THREAD_VARS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: object  # corpora.CorpusShape
    setup_stages: tuple[tuple[str, ...], ...]
    timed_stages: tuple[tuple[str, ...], ...]


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The three workloads; ``smoke`` shrinks every corpus for self-tests."""
    from corpora import CorpusShape

    def size(full: int, small: int) -> int:
        return small if smoke else full

    corpus_arg = ("--input", "{corpus}")
    return {
        w.name: w
        for w in (
            # The README quick start: training does most of the work, the
            # graph and distance layers little.
            Workload(
                "quickstart",
                CorpusShape(size(5000, 400)),
                (),
                (("pipeline", *corpus_arg),),
            ),
            # The documented re-run of the analysis stages on a fixed
            # embedding: no training in the timed part, so disruption,
            # distances, parsing, table I/O and process start-up (paid five
            # times) are all of it.  10k papers keeps three set-ups, each
            # with a training run, inside the benchmark's time budget.
            Workload(
                "rescore",
                CorpusShape(size(10000, 600)),
                (("ingest", *corpus_arg), ("train", "--epochs", "1")),
                (("metrics",), ("disrupt",), ("correlate",), ("regress",), ("curves",)),
            ),
            # The same layers used differently: a vocabulary 50 times larger,
            # sparse citations, and real work for the ingest skip path and
            # the dropped-edge counters, which the other corpora never touch.
            Workload(
                "aps-shaped",
                CorpusShape(
                    size(10000, 500),
                    n_codes=size(3000, 300),
                    n_blocks=10,
                    citation_density=3.0,
                    rough=True,
                ),
                (),
                (("pipeline", *corpus_arg, "--epochs", "1"),),
            ),
        )
    }


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Process:
    stage: str
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    errors: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = SRC
    return env


def run_cli(args: tuple[str, ...], outdir: str, corpus: str, log: str,
            spans: tuple[str, str] | None = None) -> Process:
    """One knowspan CLI process, timed from start to reaped; ``spans`` is
    (span file, run id) to run it through the tracer instead."""
    args = tuple(a.replace("{corpus}", corpus) for a in args) + ("--outdir", outdir)
    if spans is None:
        cmd = [sys.executable, "-m", "knowspan.cli", *args]
    else:
        cmd = [sys.executable, os.path.join(HERE, "tracer.py"), *spans, "--", *args]
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = Process(args[0], wall, usage.ru_maxrss / 1024.0, proc.returncode)
    if proc.returncode != 0:
        result.errors.append(f"{args[0]} exited with {proc.returncode}")
    with open(log + ".err", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if isinstance(payload, dict) and "error" in payload:
                result.errors.append(f"{args[0]} reported {line.strip()}")
    return result


# ---------------------------------------------------------------------------
# machine speed


def _probe_chunk() -> int:
    total = 0
    for i in range(10_000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples how fast the benchmark's CPU runs while the workload runs.

    On a shared VM the speed of one vCPU drifts by a fourth or more over
    minutes, so raw times of the same work spread too widely to compare
    two commits.  Every ``PERIOD_S`` a thread on the CPU the children are
    pinned to runs a fixed pure-Python chunk and records its thread CPU
    time, which grows when the CPU runs slow and ignores time spent waiting
    for it.  ``factor`` is ``REFERENCE_CHUNK_S`` over the mean chunk time
    in an interval: 1.0 at the reference speed, below 1 when the machine
    ran slow.  The probe costs the children about 1% of the CPU.
    """

    PERIOD_S = 0.1
    MIN_SAMPLES = 5
    # thread CPU time of one chunk on the 2-vCPU Xeon VM of the baseline,
    # in its fast phase
    REFERENCE_CHUNK_S = 0.0008

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, chunk CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            start = time.thread_time()
            _probe_chunk()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Speed over [start, end] in ``perf_counter`` time; over the whole
        probe when the interval holds fewer than ``MIN_SAMPLES`` samples."""
        chunks = [cpu for t, cpu in self.samples if start <= t <= end]
        if len(chunks) < self.MIN_SAMPLES:
            chunks = [cpu for _, cpu in self.samples]
        return self.REFERENCE_CHUNK_S / statistics.fmean(chunks) if chunks else 1.0


# ---------------------------------------------------------------------------
# one invocation


@dataclass
class Setup:
    directory: str
    corpus: str
    expected: object  # corpora.Expected
    seconds: float
    generate_s: float
    digests: dict[str, str]
    errors: list[str]


@dataclass
class TimedRun:
    index: int
    traced: bool
    wall_s: float
    peak_rss_mb: float
    processes: list[Process]
    problems: list[str]
    digests: dict[str, str]


def do_setup(workload: Workload, seed: int, directory: str, span_dir: str | None) -> Setup:
    import corpora
    from checks import digest

    os.makedirs(directory)
    corpus = os.path.join(directory, CORPUS)
    start = time.perf_counter()
    records = corpora.generate(workload.shape, seed)
    generated = time.perf_counter()
    expected = corpora.write_corpus(records, workload.shape, seed, corpus)
    errors: list[str] = []
    for k, stage in enumerate(workload.setup_stages):
        log = os.path.join(directory, f"setup{k}")
        spans = None if span_dir is None else (
            os.path.join(span_dir, f"setup{k}.jsonl"), f"{workload.name}-{seed}-setup")
        proc = run_cli(stage, directory, corpus, log, spans)
        errors += proc.errors
    seconds = time.perf_counter() - start
    digests = {
        name: digest(os.path.join(directory, name))
        for name in sorted(os.listdir(directory))
        if not name.startswith("setup")
    }
    return Setup(directory, corpus, expected, seconds, generated - start, digests, errors)


def do_timed_run(workload: Workload, seed: int, setup: Setup, index: int, work: str,
                 span_dir: str | None) -> tuple[TimedRun, str]:
    outdir = os.path.join(work, f"run{index}")
    if workload.setup_stages:
        # every timed run starts from a fresh copy of the set-up directory
        shutil.copytree(setup.directory, outdir,
                        ignore=shutil.ignore_patterns("setup*.out", "setup*.err"))
    else:
        os.makedirs(outdir)
    processes = []
    for k, stage in enumerate(workload.timed_stages):
        log = os.path.join(work, f"run{index}-{k}")
        spans = None if span_dir is None else (
            os.path.join(span_dir, f"run{index}-{k}.jsonl"), f"{workload.name}-{seed}-run{index}")
        proc = run_cli(stage, outdir, setup.corpus, log, spans)
        processes.append(proc)
        if proc.exit_code != 0:
            break
    run = TimedRun(
        index=index,
        traced=span_dir is not None,
        wall_s=sum(p.wall_s for p in processes),
        peak_rss_mb=max(p.peak_rss_mb for p in processes),
        processes=processes,
        problems=[e for p in processes for e in p.errors],
        digests={},
    )
    return run, outdir


def check_runs(runs: list[tuple[TimedRun, str]], setup: Setup, seed: int):
    """Fill in each run's problems and digests; returns the oracle, if any
    run left enough output to build one."""
    from checks import PIPELINE_ARTIFACTS, Oracle

    oracle = None
    for run, outdir in runs:
        if run.problems:
            continue
        if oracle is None:
            try:
                oracle = Oracle(outdir, setup.expected, seed)
            except (OSError, ValueError, KeyError) as exc:
                run.problems.append(f"oracle could not read the outputs: {exc}")
                continue
            corpus_problems = oracle.corpus_problems()
        problems, run.digests = oracle.check(outdir, PIPELINE_ARTIFACTS)
        run.problems += corpus_problems + problems
    reference = next((r.digests for r, _ in runs if r.digests), None)
    for run, _ in runs:
        if run.digests and run.digests != reference:
            changed = sorted(k for k in reference if run.digests.get(k) != reference[k])
            run.problems.append(f"outputs differ from the first run of this seed: {changed}")
    return oracle


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy", "click"):
        versions[package] = importlib.metadata.version(package)
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "versions": versions,
        "git_commit": git_commit(),
        "threads": THREAD_VARS,
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One invocation's figures and details."""
    work = os.path.join(WORK, f"{workload.name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run_workload(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    span_dir = os.path.join(work, "spans") if trace else None
    if span_dir:
        os.makedirs(span_dir)
    runs: list[tuple[TimedRun, str]] = []
    with SpeedProbe() as probe:
        setup_start = time.perf_counter()
        setups = [
            do_setup(workload, seed, os.path.join(work, f"setup{k}"), span_dir if k == 0 else None)
            for k in range(1 if trace else SETUPS)
        ]
        start = time.perf_counter()
        while True:
            runs.append(do_timed_run(workload, seed, setups[-1], len(runs), work, None))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(runs) > seconds:
                break
        if trace:
            traced_start = time.perf_counter()
            runs.append(do_timed_run(workload, seed, setups[-1], len(runs), work, span_dir))
            traced_speed = probe.factor(traced_start, time.perf_counter())
    setup_speed = probe.factor(setup_start, start)
    run_speed = probe.factor(start, start + elapsed)
    setup = setups[-1]
    setup_problems = list(setup.errors)
    if any(s.digests != setup.digests for s in setups):
        setup_problems.append("set-up outputs differ between set-ups of one seed")
    oracle = check_runs(runs, setup, seed)
    for run, _ in runs:
        run.problems = setup_problems + run.problems

    untraced = [run for run, _ in runs if not run.traced]
    walls = [run.wall_s for run in untraced]
    q1, median, q3 = quartiles(walls)
    failed = sum(bool(run.problems) for run, _ in runs)
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "corpus": asdict(workload.shape),
        "expected": asdict(setup.expected),
        "speed": {"setup": setup_speed, "runs": run_speed, "samples": len(probe.samples)},
        "raw_setup_s": [s.seconds for s in setups],
        "setup_digests": setup.digests,
        "raw_wall_s": {"median": median, "q1": q1, "q3": q3, "n": len(walls)},
        "runs": [
            {
                "index": run.index,
                "traced": run.traced,
                "wall_s": run.wall_s,
                "peak_rss_mb": run.peak_rss_mb,
                "processes": [asdict(p) for p in run.processes],
                "problems": run.problems,
                "digests": run.digests,
            }
            for run, _ in runs
        ],
        "attempted": len(runs),
        "failed": failed,
    }
    if not trace:
        result["metrics"] = {
            "wall_s": median * run_speed,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in untraced),
            "setup_s": statistics.median(result["raw_setup_s"]) * setup_speed,
        }
        return result

    import tracer

    span_files = sorted(
        (os.path.join(span_dir, name) for name in os.listdir(span_dir)),
        key=lambda path: (not os.path.basename(path).startswith("setup"), path),
    )
    layers, zero_calls = tracer.layer_metrics([tracer.read_spans(f) for f in span_files])
    # both walls at reference speed, so machine drift between them cancels
    traced_wall = runs[-1][0].wall_s * traced_speed
    layers.update(
        {
            "geometry.code_pairs": oracle.code_pairs if oracle else 0,
            "disruption.candidate_scans": oracle.candidate_scans if oracle else 0,
            "synthgen.generate_s": setup.generate_s,
            "trace.overhead_s": traced_wall - median * run_speed,
            "trace.zero_call_boundaries": len(zero_calls),
        }
    )
    result["zero_call_boundaries"] = zero_calls
    result["metrics"] = layers
    return result


def write_results(result: dict) -> str:
    directory = os.path.join(WORK, "results")
    os.makedirs(directory, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}-{os.getpid()}.json"
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def summary_lines(result: dict, units: dict[str, str]) -> list[str]:
    lines = [f"{result['workload']} seed {result['seed']}: {result['attempted']} timed run(s)"]
    for run in result["runs"]:
        for problem in run["problems"]:
            lines.append(f"  run {run['index']} FAILED: {problem}")
    if not result["trace"]:
        wall = result["raw_wall_s"]
        m = result["metrics"]
        speed = result["speed"]
        lines += [
            f"  wall_s       {m['wall_s']:10.3f} s   at reference speed (raw median "
            f"{wall['median']:.3f}, q1 {wall['q1']:.3f}, q3 {wall['q3']:.3f}; n={wall['n']})",
            f"  peak_rss_mb  {m['peak_rss_mb']:10.1f} MB",
            f"  setup_s      {m['setup_s']:10.3f} s   at reference speed (raw median of "
            f"{len(result['raw_setup_s'])}: {statistics.median(result['raw_setup_s']):.3f})",
            f"  fail_rate    {result['failed'] / result['attempted']:10.3f} "
            f"({result['failed']}/{result['attempted']} runs)",
            f"  speed        {speed['runs']:10.3f} x reference in timed runs, "
            f"{speed['setup']:.3f} in set-up ({speed['samples']} samples)",
        ]
    else:
        for name, value in result["metrics"].items():
            lines.append(f"  {name:40s} {value:14.6g} {units[name]}")
        zero = result["zero_call_boundaries"]
        lines.append("  zero-call boundaries: " + (", ".join(zero) if zero else "none"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, for self-tests")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process, its probe thread and every child it starts,
    # so the speed probe samples the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.update(THREAD_VARS)

    if not os.path.isfile(os.path.join(SRC, "knowspan", "cli.py")):
        sys.stderr.write(f"perfbench: no knowspan sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    table = workloads(args.smoke)
    names = list(table) if args.workload == "all" else [args.workload]
    if any(name not in table for name in names):
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; choose from "
                         f"{', '.join(table)} or all\n")
        return 2

    results = []
    for name in names:
        result = run_workload(table[name], args.seed, args.seconds, bool(args.trace))
        result["results_file"] = os.path.relpath(write_results(result), ROOT)
        results.append(result)
        print("\n".join(summary_lines(result, units)), flush=True)

    metrics = {
        (name if len(results) == 1 else f"{r['workload']}.{name}"): {
            "value": value, "unit": units[name]}
        for r in results
        for name, value in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
