"""Benchmark of the fracdim command line: three workloads, timed end to end.

    python3 perfbench/run.py --workload estimate-1d --seed 1 --seconds 36 --trace 0

Run it from the repository root; it imports the package from ./src and
writes its inputs, outputs and spans under ./.perfbench_out/<workload>/.

--trace 0 runs the workload's jobs as a closed loop with one client: each job
is a fresh `python -m fracdim` process, started after the previous one exits,
and a pass over the jobs repeats until --seconds would be exceeded (at least
one pass).  It reports the end-to-end metrics: medians over passes of the
pass's wall time, its children's CPU time and their largest max-RSS, plus the
median set-up time and the share of jobs that passed their checks.

--trace 1 replays the same jobs in this process through fracdim.cli.main:
an untimed warm-up pass, then pairs of passes, one plain and one with spans
around the calls into each module (see spans.py).  It reports the per-layer
metrics, per traced pass.

Every job's output is checked without the library (see checks.py).  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the environment and the run's details.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import spans
import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = Path(".perfbench_out")
IMPORT_REPEATS = 5     # `import fracdim.cli` process starts timed for cli.import_s


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, job: workloads.Job, code: int, stdout: str) -> None:
        self.attempted += 1
        if code != job.expect_exit:
            reason = f"exit {code}, expected {job.expect_exit}"
        else:
            try:
                reason = job.check(stdout)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                reason = f"malformed output: {exc!r}"
        if reason:
            self.failed += 1
            self.failures.append(f"{job.command}: {reason}")


# ------------------------------------------------------------ environment

def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> Optional[str]:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fracdim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "git_commit": _git_commit(),
            "src_sha256": _src_digest()}


# ------------------------------------------------------------- processes

def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FRACDIM_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """The small helper process (launch.py) that starts every timed child."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env(), cwd=ROOT)
        return self

    def run(self, argv: List[str], stdout: Path, stderr: Path) -> tuple:
        """Run a child to completion: (exit code, wall s, CPU s, max-RSS MB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": str(stdout),
                                          "stderr": str(stderr)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("job launcher exited")
        return tuple(json.loads(reply))

    def __exit__(self, exc_type, *rest) -> bool:
        if exc_type is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)   # the launcher kills its child first
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        return False


def check_program() -> Optional[str]:
    """Import fracdim once in a child: confirms it comes from ./src and warms its bytecode."""
    if not (SRC / "fracdim" / "__init__.py").is_file():
        return "no fracdim package under ./src; run from the repository root"
    probe = subprocess.run(
        [sys.executable, "-c", "import fracdim.cli; print(fracdim.cli.__file__)"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT)
    if probe.returncode != 0:
        return f"cannot import fracdim: {probe.stderr.strip()[-500:]}"
    if Path(probe.stdout.strip()).resolve().parent != (SRC / "fracdim").resolve():
        return f"fracdim imported from {probe.stdout.strip()}, not from ./src"
    return None


# ------------------------------------------------------------------ runs

def closed_loop(seconds: float, one_pass: Callable[[], None]) -> None:
    """Repeat passes while the next one should still end within ``seconds``."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        one_pass()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def timed_run(jobs, seconds, work, outcome, launcher, set_up) -> tuple:
    walls, cpus, rsss = [], [], []

    def one_pass():
        if walls:
            set_up()   # one set-up before every pass spreads its samples over the run
        wall = cpu = rss = 0.0
        for job in jobs:
            out_path = work / f"{job.command}.stdout"
            code, w, c, r = launcher.run([sys.executable, "-m", "fracdim", *job.argv],
                                         out_path, work / f"{job.command}.stderr")
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            outcome.record(job, code, out_path.read_text())
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)

    closed_loop(seconds, one_pass)
    return {"wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (statistics.median(rsss), "MB")}, walls


def import_time(launcher) -> float:
    times = [launcher.run([sys.executable, "-c", "import fracdim.cli"], Path(os.devnull),
                          Path(os.devnull))[1] for _ in range(IMPORT_REPEATS)]
    return statistics.median(times)


def in_process_pass(jobs, outcome) -> tuple:
    """Replay the jobs through fracdim.cli.main: (wall s, stdout bytes)."""
    import fracdim.cli

    wall = 0.0
    written = 0
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fracdim.cli.main(list(job.argv))
        wall += time.perf_counter() - start
        text = out.getvalue()
        written += len(text.encode())
        outcome.record(job, code, text)
    return wall, written


def traced_run(jobs, seconds, work, outcome, launcher) -> tuple:
    """A warm-up pass, then pairs of in-process passes, one plain and one
    traced, until ``seconds``."""
    sys.path.insert(0, str(SRC))
    os.environ.pop("FRACDIM_CONFIG", None)
    import_s = import_time(launcher)
    tracer = spans.Tracer()
    plain, traced, written = [], [], []

    def one_pair():
        plain.append(in_process_pass(jobs, outcome)[0])
        with spans.installed(tracer):
            wall, nbytes = in_process_pass(jobs, outcome)
        traced.append(wall)
        written.append(nbytes)

    start = time.perf_counter()
    # A first in-process pass grows the heap; later passes reuse it.  Run it
    # untimed so that the growth does not read as tracing overhead.
    in_process_pass(jobs, outcome)
    closed_loop(max(0.0, seconds - (time.perf_counter() - start)), one_pair)
    tracer.save(work / "spans.npz")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    return layer_metrics(tracer, len(traced), import_s, len(jobs), statistics.median(written),
                         overhead), traced


def layer_metrics(tracer, passes, import_s, n_jobs, stdout_bytes, overhead) -> dict:
    """Per-layer metrics, per traced pass.  A metric whose span could not be
    installed (its function no longer exists) is reported as missing."""
    totals = tracer.totals()
    counters = tracer.counters

    def span(metric, name, key):
        """``key`` of span ``name`` (calls, total_s or self_s), per pass."""
        unit = "count" if key == "calls" else "s"
        return metric, unit, (name,), lambda: totals.get(name, {}).get(key, 0) / passes

    def counter(metric, unit, needs, key):
        return metric, unit, needs, lambda: counters[key] / passes

    estimate, search = "lowerdim.lower_dim_estimate", "regular.search_regular"
    table = [
        ("cli.import_s", "s", (), lambda: import_s),
        ("cli.jobs", "count", (), lambda: n_jobs),
        *[span(f"cli.{c}.wall_s", f"cli.{c}", "total_s")
          for c in ("estimate", "certify", "verify", "embed")],
        span("io.read_cloud.calls", "io.read_cloud", "calls"),
        span("io.read_cloud.self_s", "io.read_cloud", "self_s"),
        span("io.dumps_canonical.self_s", "io.dumps_canonical", "self_s"),
        ("io.stdout_bytes", "B", (), lambda: stdout_bytes),
        *[span(f"{name}.{key}", name, key)
          for name in ("cloud.distances_from", "cloud.closed_ball", "cloud.subset",
                       "covering.cover_sweep", "covering.cover_bb", "covering.cover_greedy",
                       "covering.greedy_cover_parts")
          for key in ("calls", "self_s")],
        span("cloud.validate.self_s", "cloud.validate", "self_s"),
        ("covering.points_per_call", "count", ("covering.cover_sweep",),
         lambda: counters["covering.points"] / (counters["covering.calls"] or 1)),
        counter("covering.witness_parts", "count", ("covering.cover_sweep", estimate),
                "covering.witness_parts"),
        span("covering.separated_lower_bound.calls", "covering.separated_lower_bound", "calls"),
        span("lowerdim.estimate.self_s", estimate, "self_s"),
        counter("lowerdim.rows", "count", (estimate,), "lowerdim.rows"),
        span("regular.search.calls", search, "calls"),
        span("regular.search.self_s", search, "self_s"),
        counter("regular.expansions", "count", (search,), "regular.expansions"),
        ("regular.found_ratio", "ratio", (search,),
         lambda: counters["regular.found"] / (totals.get(search, {}).get("calls") or 1)),
        span("regular.verify.calls", "regular.verify_regular", "calls"),
        span("regular.verify.self_s", "regular.verify_regular", "self_s"),
        span("regular.scaling_check.self_s", "regular.certificate_scaling_check", "self_s"),
        span("trees.embed.self_s", "trees.embed_tree", "self_s"),
        span("trees.depth_scan.self_s", "trees.max_regular_depth", "self_s"),
        ("trees.searches", "count", ("trees.max_regular_depth", search),
         lambda: tracer.children_of("trees.max_regular_depth", search) / passes),
        ("trace.overhead_frac", "ratio", (), lambda: overhead),
    ]
    metrics = {}
    for name, unit, needs, value in table:
        missing = any(s not in tracer.wrapped for s in needs)
        metrics[name] = ("missing", unit) if missing else (float(value()), unit)
    return metrics


# ------------------------------------------------------------------- main

def set_up(workload: str, seed: int, work: Path, times: List[float]) -> List[workloads.Job]:
    """One timed set-up: start the program from ./src once, as every job does,
    then write the workload's inputs for ``seed`` (the files come out identical)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fracdim.cli"], env=child_env(), cwd=ROOT,
                   check=True)
    jobs = workloads.build(workload, seed, work)
    times.append(time.perf_counter() - start)
    return jobs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = check_program()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    setup_times: List[float] = []
    jobs = set_up(args.workload, args.seed, work, setup_times)
    outcome = Outcome()
    with Launcher() as launcher:
        if args.trace:
            metrics, passes = traced_run(jobs, args.seconds, work, outcome, launcher)
        else:
            metrics, passes = timed_run(jobs, args.seconds, work, outcome, launcher,
                                        lambda: set_up(args.workload, args.seed, work, setup_times))
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["ok_frac"] = (1.0 - outcome.failed / outcome.attempted, "ratio")

    missing = sorted(name for name, (value, _) in metrics.items() if value == "missing")
    for line in outcome.failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": environment(), "jobs": len(jobs),
                      "pass_wall_s": [round(w, 4) for w in passes],
                      "fail_frac": outcome.failed / outcome.attempted,
                      "failures": outcome.failures[:20], "missing_metrics": missing}))
    print(json.dumps({
        "correct": outcome.failed == 0, "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value != "missing"},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
