#!/usr/bin/env python3
"""Benchmark of the ``heckelis`` command line.

Run from the root of a checkout (no install needed, numpy required):

    python3 bench/run.py --workload sweep-sqrt --seed 7 --seconds 25 --trace 0

Each workload is one ``heckelis`` subcommand, run as a fresh
``python -m heckelis.cli`` process, one at a time (a closed loop with one
client), repeated until ``--seconds`` have passed.  ``--seed`` is the
workload seed handed to the command.

``--trace 0`` reports the end-to-end metrics: medians over the repetitions
of wall time, CPU time and peak RSS of the process tree, trials per second,
and the set-up time of a fresh interpreter importing ``heckelis.cli``, timed
between the repetitions.  ``--trace 1`` runs the same untraced repetitions,
then (for a threaded command) untraced ``--threads 1`` runs, then the command
once more inside this process with the spans of ``tracing.WRAPPED`` recorded,
and reports the per-layer metrics.

Every run goes through the output gate: exit code 0, the success line on
stdout, and a SHA-256 of each data file (manifests carry a timestamp and
are left out) equal to the reference stored for that seed in
``reference.json``; for a seed without one, equal to what ``oracle.py``
recomputes.  All runs of one invocation, traced or not and whatever their
worker count, must write the same bytes.  A run that misses any of this
counts in ``failed``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment,
digests, flags) goes to ``.bench_work/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# numpy, oracle.py and heckelis are imported only after the last measured
# command: a child's peak RSS counts its parent's peak at the time of the
# spawn, so the benchmark process stays small while it spawns them.
from tracing import SUITES, WRAPPED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
sys.path.insert(0, str(SRC))  # the traced run and the oracle import heckelis

WORKLOADS = ("sweep-sqrt", "curve-staircase", "patience-deck", "verify-full")
THREADS = 2  # pool workers of the untraced runs, fixed so machines compare
SEED = 7  # the README's seed: the default workload seed and that of the recorded counts
SETUP_PER_REP = 2  # set-up spawns before each workload run
SETUP_MIN = 10  # set-up spawns per invocation, topped up after the last run
MIN_REPEATS = 3  # a median of three outvotes one disturbed run
SINGLE_REPEATS = 3  # untraced --threads 1 runs, the base of trace.overhead
DEADLINE_S = 160  # every subprocess is killed by then, so a run ends in time
ALPHAS = ("0.45", "0.5", "0.75", "1.0")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in print order."""
    units = {}
    for module, attr in WRAPPED:
        units[f"{module}.{attr}.self_s"] = "s"
        units[f"{module}.{attr}.calls"] = "count"
    for suite in SUITES:
        units[f"verification.{suite}.s"] = "s"
        units[f"verification.{suite}.calls"] = "count"
    units.update({
        "insertion.heckeshape.letters": "count",
        "insertion.heckeshape.us_per_letter": "us",
        "insertion.post_staircase_frac": "ratio",
        "kjdt.k_rectify.ms_per_call": "ms",
        "patience.play_greedy.us_per_deck": "us",
        "asymptotics.pool.cpu_util": "ratio",
        "cli.self_s": "s",
        "cli.bytes_written": "bytes",
        "trace.wall_s": "s",
        "trace.overhead": "ratio",
    })
    return units


def exact_counts(metrics: dict) -> dict:
    """The per-layer metrics that are counts and must repeat exactly."""
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".letters"))
            or k in ("insertion.post_staircase_frac", "cli.bytes_written")}


@dataclass(frozen=True)
class Spec:
    """One workload at one seed: the ``heckelis`` arguments and its checks."""

    argv: tuple[str, ...]  # without --threads
    outputs: tuple[str, ...]  # data files written into the working directory
    trials: int  # units of work counted by trials_per_s
    threaded: bool  # the subcommand takes --threads
    success: str  # stdout text of a successful run
    oracle: tuple | None = None  # (function of oracle.py, its keyword arguments)

    @property
    def seeded(self) -> bool:
        return "--seed" in self.argv


def workload_spec(name: str, seed: int, smoke: bool) -> Spec:
    s = str(seed)
    if name == "sweep-sqrt":
        n, trials = (400, 2) if smoke else (10_000, 6)
        return Spec(
            ("sweep", "--n", str(n), "--alpha-grid", *ALPHAS, "--trials", str(trials),
             "--seed", s, "--out", "sweep.csv"),
            ("sweep.csv",), trials * len(ALPHAS), True, "wrote sweep.csv",
            ("check_sweep", dict(seed=seed, n=n, alphas=ALPHAS, trials=trials)))
    if name == "curve-staircase":
        n, q, trials = (400, 4, 8) if smoke else (10_000, 8, 300)
        return Spec(
            ("curve", "--n", str(n), "--q", str(q), "--trials", str(trials),
             "--seed", s, "--out", "curve.csv"),
            ("curve.csv",), trials, True, "wrote curve.csv",
            ("check_curve", dict(seed=seed, n=n, q=q, trials=trials)))
    if name == "patience-deck":
        trials = 500 if smoke else 100_000
        return Spec(
            ("patience", "--ranks", "13", "--copies", "4", "--trials", str(trials),
             "--seed", s, "--out", "deck"),
            ("deck_histogram.csv", "deck_pile_sizes.csv"), trials, False,
            "wrote deck_histogram.csv",
            ("check_patience", dict(seed=seed, ranks=13, copies=4, trials=trials)))
    if name == "verify-full":
        # a trial is one of the exhaustive suites
        return Spec(("verify", "--level", "fast" if smoke else "full"), (),
                    len(SUITES), False, "all suites passed")
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Rep:
    """One run of a workload command."""

    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    digests: dict = field(default_factory=dict)
    problem: str | None = None


def fresh(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)


def check_output(spec: Spec, workdir: Path, returncode: int, stdout: str, rep: Rep) -> None:
    missing = [name for name in spec.outputs if not (workdir / name).is_file()]
    if returncode != 0:
        rep.problem = f"exit code {returncode}"
    elif spec.success not in stdout:
        rep.problem = f"stdout lacks {spec.success!r}"
    elif missing:
        rep.problem = f"missing {', '.join(missing)}"
    else:
        rep.digests = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
                       for name in spec.outputs}


def spawn(argv: list[str], cwd: Path, stdout, deadline: float):
    """Run ``argv`` to completion; return its wall time, exit code and the
    resource usage of it and every child it waited for.  The process is
    killed at ``deadline`` (``time.monotonic``).  ``os.wait4`` blocks
    without polling, so the wall time has no polling granularity."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def run_cli(spec: Spec, threads: int, workdir: Path, deadline: float) -> Rep:
    """Run the command in a fresh interpreter; CPU and peak RSS cover the
    process and every pool worker it waited for."""
    fresh(workdir)
    argv = [sys.executable, "-m", "heckelis.cli", *spec.argv]
    if spec.threaded:
        argv += ["--threads", str(threads)]
    with open(workdir / "stdout.txt", "wb") as out:
        wall, returncode, usage = spawn(argv, workdir, out, deadline)
    rep = Rep(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
    stdout = (workdir / "stdout.txt").read_text(errors="replace")
    check_output(spec, workdir, returncode, stdout, rep)
    return rep


def oracle_problems(spec: Spec, workdir: Path) -> list[str]:
    """What ``oracle.py`` finds wrong with the data files in ``workdir``."""
    import oracle

    name, kwargs = spec.oracle
    return getattr(oracle, name)(workdir, **kwargs)


class Gate:
    """Judges the runs of one invocation: each must write the same bytes as
    the first, and those must match the reference digests or, for a seed
    without them, the oracle's recomputation."""

    def __init__(self, spec: Spec, expected: dict | None, keep: Path):
        self.spec = spec
        self.expected = expected
        self.keep = keep  # a copy of the first run's outputs, for the oracle
        self.first: dict | None = None
        self.passed: list[Rep] = []

    def judge(self, rep: Rep, workdir: Path) -> None:
        if rep.problem or not self.spec.outputs:
            return
        if self.first is None:
            self.first = rep.digests
            fresh(self.keep)
            for name in self.spec.outputs:
                shutil.copy(workdir / name, self.keep)
        if rep.digests != self.first:
            rep.problem = "output differs from the invocation's first run"
        elif self.expected is not None and rep.digests != self.expected:
            rep.problem = "digest differs from reference"
        else:
            self.passed.append(rep)

    def finish(self) -> None:
        """Run the oracle, once every measured command has ended."""
        if self.expected is None and self.passed:
            problems = oracle_problems(self.spec, self.keep)
            for rep in self.passed:
                rep.problem = "; ".join(problems[:3]) or None


def setup_times(count: int, deadline: float) -> list[float]:
    """Wall times of ``count`` fresh interpreters importing ``heckelis.cli``."""
    times = []
    for _ in range(count):
        wall, returncode, _ = spawn([sys.executable, "-c", "import heckelis.cli"], ROOT,
                                    None, deadline)
        if returncode != 0:
            raise RuntimeError(f"importing heckelis.cli failed with exit code {returncode}")
        times.append(wall)
    return times


def measure(spec: Spec, gate: Gate, seconds: float, workdir: Path,
            deadline: float) -> tuple[list[Rep], list[float]]:
    """Repeat the command, at least ``MIN_REPEATS`` times, starting another
    run while less than ``seconds`` have passed, so that the last run ends
    past ``seconds`` and the runs cover the whole span even when one
    takes a large part of it.  ``SETUP_PER_REP`` set-up times are taken
    before each run, so that they sample the whole invocation, and topped
    up to ``SETUP_MIN`` at the end.  Returns the runs and the set-up
    times."""
    reps: list[Rep] = []
    setup: list[float] = []
    start = time.monotonic()
    while len(reps) < MIN_REPEATS or time.monotonic() - start < seconds:
        setup += setup_times(SETUP_PER_REP, deadline)
        rep = run_cli(spec, THREADS, workdir, deadline)
        gate.judge(rep, workdir)
        reps.append(rep)
    setup += setup_times(max(SETUP_MIN - len(setup), 0), deadline)
    return reps, setup


def post_staircase_frac(words) -> float:
    """Share of inserted letters that arrive after the shape has reached
    staircase(q), found by bisecting prefixes for the first one whose
    Demazure product is the longest element."""
    from heckelis.words import Word, hecke_product, longest_element

    after = total = 0
    for w in words:
        n, q = len(w), w.alphabet_size
        total += n
        w0 = longest_element(q)
        if n == 0 or hecke_product(w) != w0:
            continue
        lo, hi = 0, n  # the empty prefix never reaches w0, the whole word does
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if hecke_product(Word(w.letters[:mid], q)) == w0:
                hi = mid
            else:
                lo = mid
        after += n - hi
    return after / total if total else 0.0


def traced_run(name: str, spec: Spec, seed: int, workdir: Path) -> tuple[Tracer, Rep, int]:
    """Run the command once in this process, single-threaded, with spans
    recorded.  Returns the tracer, the run and the bytes it wrote."""
    import heckelis.cli

    fresh(workdir)
    argv = list(spec.argv) + (["--threads", "1"] if spec.threaded else [])
    tracer = Tracer(run_id=f"{name}:seed={seed}")
    stdout = io.StringIO()
    cwd = os.getcwd()
    returncode = -1
    start = time.perf_counter()
    tracer.install()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(stdout):
            start = time.perf_counter()
            returncode = tracer.wrap("cli", heckelis.cli.main)(argv)
            wall = time.perf_counter() - start
    except Exception:
        traceback.print_exc()
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
        os.chdir(cwd)
    rep = Rep(wall)
    check_output(spec, workdir, returncode, stdout.getvalue(), rep)
    written = len(stdout.getvalue().encode()) + sum(
        (workdir / f).stat().st_size for f in spec.outputs if (workdir / f).is_file())
    return tracer, rep, written


def layer_metrics(tracer: Tracer, wall: float, written: int, cpu_util: float,
                  overhead: float) -> dict:
    totals = tracer.totals()

    def get(name: str, key: str):
        return totals.get(name, {}).get(key, 0)

    def per_call(name: str, scale: float) -> float:
        calls = get(name, "calls")
        return scale * get(name, "total_s") / calls if calls else 0.0

    metrics: dict = {}
    for module, attr in WRAPPED:
        metrics[f"{module}.{attr}.self_s"] = get(f"{module}.{attr}", "self_s")
        metrics[f"{module}.{attr}.calls"] = get(f"{module}.{attr}", "calls")
    for suite in SUITES:
        metrics[f"verification.{suite}.s"] = get(f"verification.{suite}", "total_s")
        metrics[f"verification.{suite}.calls"] = get(f"verification.{suite}", "calls")
    letters = sum(len(w) for w in tracer.shape_words)
    metrics["insertion.heckeshape.letters"] = letters
    metrics["insertion.heckeshape.us_per_letter"] = (
        1e6 * get("insertion.heckeshape", "total_s") / letters if letters else 0.0)
    metrics["insertion.post_staircase_frac"] = post_staircase_frac(tracer.shape_words)
    metrics["kjdt.k_rectify.ms_per_call"] = per_call("kjdt.k_rectify", 1e3)
    metrics["patience.play_greedy.us_per_deck"] = per_call("patience.play_greedy", 1e6)
    metrics["asymptotics.pool.cpu_util"] = cpu_util
    metrics["cli.self_s"] = get("cli", "self_s")
    metrics["cli.bytes_written"] = written
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead"] = overhead
    return metrics


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def count_flags(key: tuple[str, str, str], counts: dict) -> list[str]:
    """Compare the exact counts with the stored reference and with earlier
    runs in this checkout; remember them for later runs."""
    mode, name, seed = key
    ledger_path = WORK / "counts.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    ledger_key = "/".join(key)
    flags = []
    sources = (("reference", load_reference()["counts"][mode].get(name, {}).get(seed)),
               ("earlier run", ledger.get(ledger_key)))
    for source, expected in sources:
        if expected is None:
            continue
        for metric, value in counts.items():
            if expected.get(metric) != value:
                flags.append(f"count {metric} = {value}, {source} had {expected.get(metric)}")
    ledger.setdefault(ledger_key, counts)
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return flags


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": git_commit(),
        "load_1m_start": os.getloadavg()[0],
    }


def benchmark(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload and return the full result record."""
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    flags = []
    if env["load_1m_start"] >= env["nproc"]:
        flags.append(f"started with load {env['load_1m_start']:.2f} >= nproc {env['nproc']}")
    mode = "smoke" if smoke else "full"
    spec = workload_spec(name, seed, smoke)
    seed_key = str(seed) if spec.seeded else "-"
    expected = load_reference()["digests"][mode].get(name, {}).get(seed_key)
    workdir = WORK / name
    gate = Gate(spec, expected, WORK / f"{name}-first")

    reps, setup = measure(spec, gate, seconds, workdir, deadline)
    walls = [r.wall_s for r in reps]
    wall, cpu = statistics.median(walls), statistics.median(r.cpu_s for r in reps)
    if trace:
        untraced = wall  # a command without --threads already runs serially
        if spec.threaded:
            singles = [run_cli(spec, 1, workdir, deadline) for _ in range(SINGLE_REPEATS)]
            for single in singles:
                gate.judge(single, workdir)
            reps += singles
            untraced = statistics.median(r.wall_s for r in singles)
        tracer, traced, written = traced_run(name, spec, seed, workdir)
        gate.judge(traced, workdir)
        reps.append(traced)
        tracer.save(WORK / f"spans-{name}-{mode}-seed{seed_key}.npz")
        # The traced run pays no interpreter start or import; on runs too
        # short for that to be subtracted, fall back to the plain ratio.
        in_process = untraced - statistics.median(setup)
        overhead = traced.wall_s / (in_process if in_process > 0 else untraced)
        metrics = layer_metrics(tracer, traced.wall_s, written, cpu / wall, overhead)
        flags += count_flags((mode, name, seed_key), exact_counts(metrics))
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "trials_per_s": statistics.median(spec.trials / w for w in walls),
            "cpu_s": cpu,
            "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        }
        units = END_TO_END
    gate.finish()
    failed = [r.problem for r in reps if r.problem]
    env["load_1m_end"] = os.getloadavg()[0]
    return {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "trace": int(trace),
        "env": env,
        "flags": flags,
        "problems": failed,
        "failed_frac": len(failed) / len(reps),
        "digests": gate.first,
        "wall_s_runs": walls,
        "setup_s_runs": setup,
        "result": {
            "correct": not failed,
            "attempted": len(reps),
            "failed": len(failed),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=SEED,
                        help=f"workload seed (default: {SEED})")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "heckelis" / "cli.py").is_file():
        print(f"error: no heckelis sources under {SRC}", file=sys.stderr)
        return 2

    record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    out = WORK / f"result-{args.workload}-{record['mode']}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for flag in record["flags"]:
        print(f"FLAG {flag}")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print(f"failed_frac {record['failed_frac']:g} of {record['result']['attempted']} runs")
    for k, m in record["result"]["metrics"].items():
        print(f"{k:44s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
