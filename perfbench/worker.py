"""One workload in a fresh interpreter, driven by ``run.py``.

Protocol: the worker builds its inputs from the seed, runs one untimed
warm-up operation, prints ``READY`` and reads one line from stdin.
``exit`` ends it there (a set-up measurement); ``run`` starts the timed
phase (``--trace 0``) or the traced phase (``--trace 1``) and prints one
JSON line with the results.

Every operation calls ``macontact`` in this process: the CLI through
``cli.main(argv)``, the library directly.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
from time import perf_counter, perf_counter_ns

import reference
import workloads
from tracer import Tracer


class Runner:
    """Runs operations in this process."""

    def __init__(self, root, scratch):
        self.scratch = scratch
        sys.path.insert(0, os.path.join(root, "src"))
        import macontact.bends
        import macontact.cli
        import macontact.contact
        import macontact.expr
        import macontact.zeta
        self.mc = macontact

    def _path(self, op, slot):
        if workloads.OUT not in op.get("argv", ()):
            return None
        ext = "csv" if op["type"] == "export" or op.get("format") == "csv" else "json"
        return os.path.join(self.scratch, f"op{slot:03d}.{ext}")

    def execute(self, op, slot):
        """Run one operation; returns what ``output`` needs.

        An exception escaping the program is returned, not raised, so that
        the operation counts as failed and the run goes on.
        """
        path = self._path(op, slot)
        argv = [path if a == workloads.OUT else a for a in op.get("argv", ())]
        try:
            if op["call"] == "lib":
                return self._library(op)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = self.mc.cli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
            return {"code": code, "stdout": stdout.getvalue()}
        except Exception as exc:
            return exc

    def _library(self, op):
        mc = self.mc
        if op["type"] == "bracket":
            chart = mc.contact.ContactChart()
            mu = mc.expr.parse(op["mu_text"], workloads.CHART)
            nu = mc.expr.parse(op["nu_text"], workloads.CHART)
            return [mc.contact.lagrange_bracket(chart, mu, nu, mc.contact.DarbouxPoint(*p))
                    for p in op["points"]]
        if op["type"] == "eval_jet":
            expr = mc.expr.parse(op["text"], workloads.CHART)
            return [expr.eval_jet(tuple(p), op["order"]) for p in op["points"]]
        bend = mc.bends.normal_form(op["k"], mc.zeta.ZetaKind(op["kind"]))
        chain = [bend]
        for _ in range(op["steps"]):
            bend = mc.bends.prolong_bend(bend)
            chain.append(bend)
        return chain

    def output(self, op, slot, raw):
        """JSON-able output of an operation (done outside its timing)."""
        out = {"code": 0, "stdout": None, "file": None, "value": None}
        if isinstance(raw, Exception):
            out["value"] = f"raised {raw!r}"
            return out
        if op["call"] == "lib":
            if op["type"] == "bracket":
                out["value"] = [float(v) for v in raw]
            elif op["type"] == "eval_jet":
                out["value"] = [[[list(a), c] for a, c in jet.coeffs.items()] for jet in raw]
            else:
                out["value"] = [{"degree": b.degree, "kind": b.kind.value,
                                 "q1": b.q1.coeffs.tolist(), "q2": b.q2.coeffs.tolist()}
                                for b in raw]
            return out
        out.update(raw)
        path = self._path(op, slot)
        if path and os.path.exists(path):
            with open(path) as handle:
                out["file"] = handle.read()
            os.remove(path)
        return out


def digest(out) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


class Checker:
    """Reference-checks the first output of each pool slot; later outputs of
    the same slot must have the same digest."""

    def __init__(self, pool):
        self.pool = pool
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, slot, out):
        self.add_digest(slot, digest(out), out)

    def add_digest(self, slot, d, out):
        """``out`` is read only when it is the first output of the slot."""
        self.attempted += 1
        if slot not in self.digests:
            problems = reference.check(self.pool[slot], out)
            self.digests[slot] = None if problems else d
            self.problems += [f"op {slot} ({self.pool[slot]['type']}): {p}" for p in problems[:3]]
        if self.digests[slot] != d:
            self.failed += 1
            if self.digests[slot] is not None:
                self.problems.append(f"op {slot}: output differs from its first run")


def timed_phase(runner, pool, checker, seconds):
    """Whole passes over the pool until ``seconds`` have passed, so every
    run samples the pool's cost profile evenly.

    Only the first output of each slot is kept (later ones as digests), so
    the peak RSS does not grow with the number of passes; the reference
    checks run after the timed phase.
    """
    times, digests, first = [], [], {}
    start = perf_counter()
    while not times or t1 - start < seconds:
        for slot, op in enumerate(pool):
            t0 = perf_counter()
            raw = runner.execute(op, slot)
            t1 = perf_counter()
            times.append(t1 - t0)
            out = runner.output(op, slot, raw)
            first.setdefault(slot, out)
            digests.append((slot, digest(out)))
    wall = t1 - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for slot, d in digests:
        checker.add_digest(slot, d, first[slot])
    return {"times": times, "wall": wall, "peak_rss_mb": peak_rss_mb}


def traced_phase(runner, pool, checker, seconds):
    """Passes over the pool, each operation run untraced and then traced;
    per pass, the span totals and both op-time sums."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        tracer = Tracer()
        untraced_ns = traced_ns = 0
        for slot, op in enumerate(pool):
            t0 = perf_counter_ns()
            raw = runner.execute(op, slot)
            untraced_ns += perf_counter_ns() - t0
            checker.add(slot, runner.output(op, slot, raw))
            tracer.install()
            t0 = perf_counter_ns()
            raw = runner.execute(op, slot)
            traced_ns += perf_counter_ns() - t0
            tracer.uninstall()
            checker.add(slot, runner.output(op, slot, raw))
        totals = tracer.metrics()
        totals["trace.op_ms"] = traced_ns / 1e6
        totals["trace.untraced_op_ms"] = untraced_ns / 1e6
        passes.append(totals)
    return passes


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    scratch = os.path.join(args.root, ".perfbench_tmp", f"{os.getpid():08d}")
    os.makedirs(scratch)
    try:
        runner = Runner(args.root, scratch)
        pool, warmup = workloads.generate(args.workload, args.seed)
        warm_out = runner.output(warmup, len(pool), runner.execute(warmup, len(pool)))
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        checker = Checker(pool + [warmup])
        checker.add(len(pool), warm_out)
        if args.trace:
            result = {"passes": traced_phase(runner, pool, checker, args.seconds),
                      "trace_ops": len(pool)}
        else:
            result = timed_phase(runner, pool, checker, args.seconds)
        result.update(attempted=checker.attempted, failed=checker.failed,
                      problems=checker.problems[:20])
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
