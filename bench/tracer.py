"""Span recorder for traced runs, installed from outside the package.

    python3 bench/tracer.py --out SPANS.npz --run-id ID -- <cumasim CLI args>

runs the CLI with every public function and public method of the
cumasim modules wrapped in a span. A wrapper replaces the function at
each module attribute that holds it, which is where callers look it up
(``analytic.kummer_1f1``, ``cli.run_sweep``, ``montecarlo.sir_sample``),
and methods are replaced on their class (``SeedSpec.rng``). Spans stay
in memory as flat arrays and are written out once, when the run ends.

A span is (name, start, end, parent) and all spans of one recorder share
its run id. Parents come from a per-thread stack, so the children of a
span ran one after another on its thread: they never overlap, and the
time they cover is the sum of their durations.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array

import numpy as np

MODULES = ("geometry", "specfun", "analytic", "approx", "montecarlo", "harness", "cli")


class SpanRecorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self._local = threading.local()

    def wrap(self, name: str, fn, annotate=None):
        """`fn` recording one span per call; `annotate(bound_args, result)` adds attributes."""
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        local, attrs, clock = self._local, self.attrs, time.perf_counter
        sig = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = [-1]
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if annotate:
                attrs[idx] = annotate(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


def load(path: str) -> dict:
    """Spans written by `main`, as arrays plus the name table and attributes."""
    with np.load(path) as z:
        meta = json.loads(str(z["names"]))
        out = {k: z[k] for k in ("name_id", "parent", "start", "end")}
    out.update(run_id=meta["run_id"], names=meta["names"], attrs={int(k): v for k, v in meta["attrs"].items()})
    return out


def self_times(parent, start, end):
    """Each span's duration minus the time its children cover.

    Children of one span never overlap (see the module docstring), so the
    time they cover is the sum of their durations.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def outermost(parent, member):
    """Mask of the spans in `member` that have no ancestor in `member`."""
    nested = np.zeros(len(parent), dtype=bool)
    up = parent.copy()
    live = np.flatnonzero(up >= 0)
    while live.size:
        nested[live] |= member[up[live]]
        up[live] = parent[up[live]]
        live = live[up[live] >= 0]
    return member & ~nested


def _sir_samples_attrs(a, result):
    cfg = a["config"]
    return {"trials": a["trials"], "redrawn": result.redrawn, "ports": cfg.corr.dim, "users": cfg.users}


ANNOTATE = {
    "montecarlo.sir_samples": _sir_samples_attrs,
    "geometry.correlation_matrix": lambda a, result: {"ports": result.dim},
}


# Counts and computed sizes that must repeat exactly between runs of the same code.
EXACT_COUNTS = (
    "geometry.ports",
    "geometry.factor_mb",
    "analytic.exact_pdf_zI.calls",
    "analytic.exact_pdf_z.calls",
    "analytic.exact_cdf_z.calls",
    "specfun.kummer_1f1.calls",
    "specfun.log_gamma.calls",
    "montecarlo.sir_samples.calls",
    "montecarlo.trials",
    "montecarlo.redrawn",
    "montecarlo.select_ports.calls",
    "montecarlo.matmul_gflop",
    "trace.spans",
)


def layer_metrics(spans: dict, untraced_wall_s: float, traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    names, nid, parent = spans["names"], spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    own = self_times(parent, spans["start"], spans["end"])

    def mask(pred):
        return np.isin(nid, [i for i, n in enumerate(names) if pred(n)])

    def calls(name):
        return float(np.count_nonzero(mask(lambda n: n == name)))

    def self_s(name):
        return float(own[mask(lambda n: n == name)].sum())

    def total_s(pred):
        return float(dur[outermost(parent, mask(pred))].sum())

    def attrs(name):
        return [a for i, a in sorted(spans["attrs"].items()) if names[nid[i]] == name]

    draws = attrs("montecarlo.sir_samples")
    trials = sum(a["trials"] for a in draws)
    # two N x N by N x users matmuls (real and imaginary parts) per drawn trial
    gflop = sum(4.0 * a["ports"] ** 2 * a["users"] * (a["trials"] + a["redrawn"]) for a in draws) / 1e9
    ports = max((a["ports"] for a in attrs("geometry.correlation_matrix")), default=0)
    sampling_s = total_s(lambda n: n == "montecarlo.sir_samples")
    return {
        "geometry.correlation_matrix.self_s": (self_s("geometry.correlation_matrix"), "s"),
        "geometry.correlation_entries.self_s": (self_s("geometry.correlation_entries"), "s"),
        "geometry.ports": (float(ports), "count"),
        "geometry.factor_mb": (ports * ports * 8 / 1e6, "MB"),
        "analytic.sigma_sums.self_s": (self_s("analytic.sigma_sums"), "s"),
        "analytic.exact_pdf_zI.calls": (calls("analytic.exact_pdf_zI"), "count"),
        "analytic.exact_pdf_zI.self_s": (self_s("analytic.exact_pdf_zI"), "s"),
        "analytic.exact_pdf_z.calls": (calls("analytic.exact_pdf_z"), "count"),
        "analytic.exact_cdf_z.calls": (calls("analytic.exact_cdf_z"), "count"),
        "analytic.exact_er.s": (total_s(lambda n: n == "analytic.exact_er"), "s"),
        "analytic.exact_op.s": (total_s(lambda n: n == "analytic.exact_op"), "s"),
        "analytic.exact_sop.s": (total_s(lambda n: n == "analytic.exact_sop"), "s"),
        "specfun.kummer_1f1.calls": (calls("specfun.kummer_1f1"), "count"),
        "specfun.kummer_1f1.self_s": (self_s("specfun.kummer_1f1"), "s"),
        "specfun.log_gamma.calls": (calls("specfun.log_gamma"), "count"),
        "approx.s": (total_s(lambda n: n.startswith("approx.")), "s"),
        "montecarlo.sir_samples.calls": (float(len(draws)), "count"),
        "montecarlo.trials": (float(trials), "count"),
        "montecarlo.redrawn": (float(sum(a["redrawn"] for a in draws)), "count"),
        "montecarlo.us_per_trial": (1e6 * sampling_s / trials if trials else 0.0, "us"),
        "montecarlo.trials_per_s": (trials / untraced_wall_s, "1/s"),
        "montecarlo.rng.self_s": (self_s("montecarlo.SeedSpec.rng"), "s"),
        "montecarlo.sir_sample.self_s": (self_s("montecarlo.sir_sample"), "s"),
        "montecarlo.select_ports.calls": (calls("montecarlo.select_ports"), "count"),
        "montecarlo.draw_s": (self_s("montecarlo.sir_samples"), "s"),
        "montecarlo.matmul_gflop": (gflop, "GFLOP"),
        "harness.run_sweep.self_s": (self_s("harness.run_sweep"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.spans": (float(len(nid)), "count"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace_overhead_s": (traced_wall_s - untraced_wall_s, "s"),
    }


def public_callables(module):
    """(span name, owner, attribute, function, kind) for the module's public API."""
    short = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{short}.{name}", module, name, obj, None))
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    out.append((f"{short}.{name}.{attr}", obj, attr, raw.__func__, type(raw)))
                elif inspect.isfunction(raw):
                    out.append((f"{short}.{name}.{attr}", obj, attr, raw, None))
    return out


def install(rec: SpanRecorder) -> None:
    """Wrap the public API of every cumasim module."""
    pkg = importlib.import_module("cumasim")
    mods = [importlib.import_module(f"cumasim.{m}") for m in MODULES]
    namespaces = [pkg, *mods]
    for mod in mods:
        for span, owner, attr, fn, kind in public_callables(mod):
            traced = rec.wrap(span, fn, ANNOTATE.get(span))
            if inspect.isclass(owner):
                setattr(owner, attr, kind(traced) if kind else traced)
                continue
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, key, traced)


def main() -> int:
    ap = argparse.ArgumentParser(description="run the cumasim CLI with every public function traced")
    ap.add_argument("--out", required=True, help="where to write the spans (.npz)")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    rec = SpanRecorder(args.run_id)
    install(rec)
    cli = importlib.import_module("cumasim.cli")
    code = cli.main(cli_args)
    sys.stdout.flush()
    attrs = {str(k): v for k, v in rec.attrs.items()}
    np.savez(args.out, names=np.array(json.dumps({"run_id": rec.run_id, "names": rec.names, "attrs": attrs})), **rec.arrays())
    return code


if __name__ == "__main__":
    sys.exit(main())
