"""cumasim benchmark: figure-style CLI runs, correctness gates, traced layers.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved
from this file). The program is run from source: children get
``PYTHONPATH=src``.

A run is a closed loop with one client: the workload's CLI command runs
in a fresh process, one at a time, once and then again while one more
run as long as the last fits in ``--seconds``, the way a researcher
regenerates a figure.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
  wall_s       median wall time of one CLI run (cold process)
  setup_s      median, over SETUP_PROBES fresh processes, of the time to
               import cumasim and build the workload's grids,
               CorrelationMatrix and ChannelStats
  cpu_s        median user + system CPU seconds of one CLI run
  peak_rss_mb  median peak resident memory of one CLI run

``--trace 1`` pairs an untraced run with a traced one (bench/tracer.py)
and reports the per-layer metrics of the traced run, including
trace_overhead_s, the difference of their wall times.

Every CLI output passes the gates in bench/gates.py against
bench/reference.json, and runs with one seed must print identical bytes:
within a benchmark run, and across benchmark runs of the same code via
the records under .bench_runs/records, which also hold the exact work
counts of traced runs. A program run fails on a non-zero exit, a
timeout or any tripped gate; ``attempted`` and ``failed`` count program
runs (set-up probes included), so fail_frac = failed / attempted.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The full result, with the manifest and
every gate's diagnostics, is written under .bench_runs/results.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import tracer
from gates import check, parse_csv
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
STATE = os.path.join(ROOT, ".bench_runs")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a benchmark run must end within 180 s
# The same pinned BLAS thread count on both sides of any comparison; at
# most the CPUs this process may use.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class ChildRun:
    argv: list[str]
    code: int | None  # None when killed at the deadline
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    problems: list[str]

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()

    def summary(self) -> dict:
        return {
            "argv": self.argv[1:], "code": self.code, "wall_s": self.wall_s, "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb, "stdout_sha256": self.digest, "problems": self.problems,
            "stderr_tail": self.stderr[-2000:],
        }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], deadline: float) -> ChildRun:
    """Run one process to completion; wall from the parent, CPU and RSS from wait4."""
    tmp = os.path.join(STATE, "tmp")
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)

        def kill():
            with lock:
                if not state["reaped"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            with lock:
                state["reaped"] = True
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    code = None if state["killed"] else proc.returncode
    problems = [] if code == 0 else ["killed at the run deadline" if code is None else f"exit code {code}"]
    return ChildRun(
        argv=argv, code=code, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0, stdout=stdout, stderr=stderr, problems=problems,
    )


def _tree_sha256(pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, pattern), recursive=True)):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


class Records:
    """Values that runs of the same code must repeat exactly, kept across benchmark runs."""

    def __init__(self, code_id: str):
        self.path = os.path.join(STATE, "records", f"{code_id}.json")
        try:
            with open(self.path) as fh:
                self.data = json.load(fh)
        except FileNotFoundError:
            self.data = {}

    def agree(self, key: str, value) -> bool:
        """False when `key` was recorded with another value; records it otherwise."""
        if key in self.data:
            return self.data[key] == value
        self.data[key] = value
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
        return True


def _judge(run: ChildRun, workload, seed: int, ref: dict) -> list[dict]:
    """Apply the output gates to one CLI run; adds its failures to run.problems."""
    if run.code != 0:
        return []
    try:
        seed_column = seed if workload.seeded else ref["seed_column"]
        values = parse_csv(run.stdout, ref["trials"], seed_column)
    except (ValueError, KeyError, IndexError) as exc:
        run.problems.append(f"unreadable output: {exc!r}")
        return []
    diags = check(values, ref["values"])
    run.problems += [f"gate {d['key']}: {d.get('detail') or 'deviation above bound'}" for d in diags if not d["ok"]]
    return diags


def _same_bytes(runs: list[ChildRun], records: Records, key: str) -> None:
    first = runs[0].digest
    for run in runs:
        if run.code != 0:
            continue
        if run.digest != first:
            run.problems.append("output differs from the first run with this seed")
        elif not records.agree(key, run.digest):
            run.problems.append("output differs from an earlier benchmark run of this code and seed")


def _median(runs: list[ChildRun], field: str) -> float:
    return statistics.median(getattr(r, field) for r in runs)


def _probe(workload, deadline: float) -> tuple[ChildRun, dict | None]:
    run = run_child([sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload.name], deadline)
    if run.code != 0:
        return run, None
    try:
        return run, json.loads(run.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        run.problems.append(f"unreadable probe output: {exc!r}")
        return run, None


def _loop(seconds: float, deadline: float, step) -> list:
    """Call step() once, then again while one more call as long as the last fits in `seconds`."""
    out = []
    t_start = time.monotonic()
    last = 0.0
    while not out or (time.monotonic() + last - t_start <= seconds and time.monotonic() + last < deadline):
        t0 = time.monotonic()
        out.append(step())
        last = time.monotonic() - t0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, ref_doc: dict, code_id: str) -> dict:
    workload = WORKLOADS[name]
    ref = ref_doc["workloads"][name]
    deadline = time.monotonic() + RUN_LIMIT_S
    records = Records(code_id)
    seed_key = str(seed) if workload.seeded else "-"
    cli = [sys.executable, "-m", "cumasim", *workload.argv(seed)]
    gate_diags: list[dict] = []

    n_probes = 1 if trace else SETUP_PROBES
    probes = [_probe(workload, deadline) for _ in range(n_probes)]
    probe_runs = [p[0] for p in probes]
    probe_out = [p[1] for p in probes if p[1] is not None]
    manifest = dict(probe_out[0]["manifest"]) if probe_out else {}

    if not trace:
        runs = _loop(seconds, deadline, lambda: run_child(cli, deadline))
        for run in runs:
            gate_diags += _judge(run, workload, seed, ref)
        _same_bytes(runs, records, f"stdout/{name}/{seed_key}")
        done = [r for r in runs if r.code == 0]
        if not done or not probe_out:
            raise RuntimeError(_first_problem(probe_runs + runs))
        metrics = {
            "wall_s": _median(done, "wall_s"),
            "setup_s": statistics.median(p["setup_s"] for p in probe_out),
            "cpu_s": _median(done, "cpu_s"),
            "peak_rss_mb": _median(done, "peak_rss_mb"),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        pairs = _loop(seconds, deadline, lambda: _traced_pair(cli, deadline))
        runs = [r for pair in pairs for r in pair[:2]]
        for run in runs:
            gate_diags += _judge(run, workload, seed, ref)
        _same_bytes(runs, records, f"stdout/{name}/{seed_key}")
        layer = [p[2] for p in pairs if p[2] is not None]
        if not layer:
            raise RuntimeError(_first_problem(runs))
        for (_, traced, lm) in pairs:
            if lm is None:
                continue
            counts = {k: lm[k][0] for k in tracer.EXACT_COUNTS}
            if not records.agree(f"counts/{name}/{seed_key}", counts):
                traced.problems.append("work counts differ from an earlier traced run of this code and seed")
        metrics = {
            k: {"value": statistics.median(lm[k][0] for lm in layer), "unit": unit}
            for k, (_, unit) in layer[0].items()
        }

    all_runs = probe_runs + runs
    failed = sum(1 for r in all_runs if r.problems)
    manifest.update(
        blas_threads=BLAS_THREADS, git_commit=_git_commit(), source_sha256=_tree_sha256("src/cumasim/**/*.py"),
        bench_sha256=_tree_sha256("bench/**/*.py"), seed=seed, seed_used=workload.seeded,
    )
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0, "attempted": len(all_runs), "failed": failed,
        "fail_frac": failed / len(all_runs), "metrics": metrics, "manifest": manifest,
        "runs": [r.summary() for r in all_runs],
        "gates": _worst_per_key(gate_diags),
    }


def _traced_pair(cli: list[str], deadline: float):
    plain = run_child(cli, deadline)
    spans_path = os.path.join(STATE, "tmp", f"spans-{os.getpid()}-{time.monotonic_ns()}.npz")
    run_id = os.path.basename(spans_path)[6:-4]
    traced = run_child([sys.executable, os.path.join(BENCH_DIR, "tracer.py"), "--out", spans_path, "--run-id", run_id, "--", *cli[3:]], deadline)
    lm = None
    try:
        if plain.code == 0 and traced.code == 0:
            if traced.digest != plain.digest:
                traced.problems.append("traced output differs from the untraced run")
            lm = tracer.layer_metrics(tracer.load(spans_path), plain.wall_s, traced.wall_s)
    finally:
        if os.path.exists(spans_path):
            os.remove(spans_path)
    return plain, traced, lm


def _first_problem(runs: list[ChildRun]) -> str:
    bad = next(r for r in runs if r.problems)
    return f"{' '.join(bad.argv[1:])}: {bad.problems[0]}\n{bad.stderr[-2000:]}"


def _worst_per_key(diags: list[dict]) -> list[dict]:
    """Per gated key, the diagnostic with the largest deviation relative to its bound."""

    def badness(d):
        return d["deviation"] / d["bound"] if "bound" in d else math.inf

    worst: dict[str, dict] = {}
    for d in diags:
        if d["key"] not in worst or badness(d) > badness(worst[d["key"]]):
            worst[d["key"]] = d
    return [worst[k] for k in sorted(worst)]


def _print_result(res: dict) -> None:
    seed_note = "" if res["manifest"]["seed_used"] else " (deterministic workload: the seed is ignored)"
    print(f"workload {res['workload']}  seed {res['seed']}{seed_note}  trace {res['trace']}")
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    checked = len(res["gates"])
    tripped = [g["key"] for g in res["gates"] if not g["ok"]]
    print(f"  gates: {checked} keys checked, tripped: {', '.join(tripped) or 'none'}")
    print(f"  program runs: {res['attempted']} attempted, {res['failed']} failed (fail_frac {res['fail_frac']:.3g})")
    for r in res["runs"]:
        for p in r["problems"]:
            print(f"  FAILED {' '.join(r['argv'][:3])}...: {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be a u64")
    if not os.path.isfile(os.path.join(ROOT, "src", "cumasim", "__init__.py")):
        print(f"error: no cumasim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for sub in ("tmp", "records", "results"):
        os.makedirs(os.path.join(STATE, sub), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        ref_doc = json.load(fh)
    code_id = f"{_tree_sha256('src/cumasim/**/*.py')[:16]}-{_tree_sha256('bench/**/*.py')[:16]}"

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), ref_doc, code_id)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        path = os.path.join(STATE, "results", f"{name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json")
        with open(path, "w") as fh:
            json.dump(res, fh, indent=1)
        _print_result(res)
        print(f"  result file: {os.path.relpath(path, ROOT)}")
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
