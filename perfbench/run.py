"""Benchmark of the ``macontact`` CLI and library, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of region_sweep, jet_calculus, singular_families, or
``all`` (the default) to run each in turn.  With ``--trace 0`` it prints
the end-to-end metrics, with ``--trace 1`` the per-layer metrics; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every operation's output is
checked against ``reference.py``; ``failed`` counts the ones that
disagree.  See README.md for the workloads and what each metric predicts.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5            # fresh interpreters per run; setup_s is their median
IMPORT_RUNS = 5       # `python -X importtime` and `python -c pass` samples
WORKER_TIMEOUT = 170  # seconds

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

JET_PAIRS = ["n2o2"] + [f"n2o{o}" for o in range(5, 12)] + [f"n5o{o}" for o in range(1, 7)]

PER_LAYER = (
    [("import.macontact_ms", "ms"), ("import.scipy_ms", "ms"), ("import.numpy_ms", "ms"),
     ("cli.interp_start_ms", "ms"),
     ("cli.main_calls", "count"), ("cli.main_self_ms", "ms"),
     ("cli.dumps_ms", "ms"), ("cli.dumps_bytes", "bytes"), ("cli.find_nan_ms", "ms"),
     ("expr.parse_calls", "count"), ("expr.parse_ms", "ms"),
     ("expr.eval_calls", "count"), ("expr.eval_ms", "ms"),
     ("expr.eval_jet_calls", "count"), ("expr.eval_jet_ms", "ms")]
    + [(f"expr.eval_jet.{p}_ms", "ms") for p in JET_PAIRS]
    + [("expr.jet_mul_calls", "count"), ("expr.jet_mul_ms", "ms"),
       ("zeta.mul_calls", "count"), ("zeta.pow_calls", "count"), ("zeta.pow_ms", "ms"),
       ("symplectic.classify_dim4_calls", "count"), ("symplectic.classify_dim4_ms", "ms"),
       ("contact.contact_field_calls", "count"), ("contact.contact_field_ms", "ms"),
       ("contact.lagrange_bracket_calls", "count"), ("contact.lagrange_bracket_ms", "ms"),
       ("monge_ampere.classify_region_ms", "ms"), ("monge_ampere.cells", "count"),
       ("monge_ampere.error_cells", "count"),
       ("monge_ampere.invariance_defect_calls", "count"),
       ("monge_ampere.invariance_defect_ms", "ms"),
       ("bends.is_bend_calls", "count"), ("bends.is_bend_ms", "ms"),
       ("bends.prolong_bend_ms", "ms"),
       ("bends.span_angle_calls", "count"), ("bends.span_angle_ms", "ms"),
       ("rmanifold.family_point_calls", "count"), ("rmanifold.family_point_ms", "ms"),
       ("rmanifold.singular_point_report_self_ms", "ms"),
       ("rmanifold.write_point_cloud_ms", "ms")]
    + [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    + [("bench.self_ms", "ms"), ("trace.ops", "count"), ("trace.op_ms", "ms"),
       ("trace.overhead_frac", "ratio"), ("trace.attributed_frac", "ratio")]
)
COUNT_UNITS = ("count", "bytes")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def stamp(seed):
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as handle:
                    commit = handle.read().strip()
    src = hashlib.sha256()
    package = os.path.join(ROOT, "src", "macontact")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                src.update(name.encode() + b"\0" + handle.read())
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "seed": seed,
            "git_commit": commit, "src_sha256": src.hexdigest()[:16]}


# --- workers ---------------------------------------------------------------------------

def start_worker(args, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker did not start (exit {proc.poll()})")
    return proc, setup


def finish_worker(proc, command):
    try:
        stdout, _ = proc.communicate(command + "\n", timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]) if command == "run" else None


def end_to_end(args, workload):
    setups = []
    for i in range(SETUPS):
        proc, setup = start_worker(args, workload, 0)
        setups.append(setup)
        if i < SETUPS - 1:
            finish_worker(proc, "exit")
    result = finish_worker(proc, "run")
    times = result["times"]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * statistics.quantiles(times, n=10)[-1],
        "ops_per_s": len(times) / result["wall"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return metrics, result, dict(END_TO_END)


# --- per-layer -------------------------------------------------------------------------

def importtime_tree(stderr):
    """(name, cumulative us, enclosing names) per `-X importtime` entry."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    out, stack = [], []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        out.append((name, cumulative, [n for _, n in stack]))
        stack.append((depth, name))
    return out


def outermost_ms(tree, package):
    def top(name):
        return name.split(".")[0]
    return sum(c for name, c, parents in tree
               if top(name) == package and all(top(p) != package for p in parents)) / 1e3


def import_layer():
    env = child_env()
    runs = {"import.macontact_ms": [], "import.scipy_ms": [], "import.numpy_ms": [],
            "cli.interp_start_ms": []}
    for _ in range(IMPORT_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        runs["cli.interp_start_ms"].append(1e3 * (perf_counter() - t0))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import macontact"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        tree = importtime_tree(proc.stderr)
        for package in ("macontact", "scipy", "numpy"):
            runs[f"import.{package}_ms"].append(outermost_ms(tree, package))
    return {k: statistics.median(v) for k, v in runs.items()}


def per_layer(args, workload):
    proc, _ = start_worker(args, workload, 1)
    result = finish_worker(proc, "run")
    passes = result["passes"]
    units = dict(PER_LAYER)
    problems = []
    metrics = {}
    for name, unit in PER_LAYER:
        values = [p.get(name, 0) for p in passes]
        if unit in COUNT_UNITS:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.ops"] = result["trace_ops"]
    attributed = [sum(p.get(f"{layer}.self_ms", 0) for layer in LAYERS)
                  for p in passes]
    metrics["bench.self_ms"] = statistics.median(
        p["trace.op_ms"] - a for p, a in zip(passes, attributed))
    metrics["trace.attributed_frac"] = statistics.median(
        a / p["trace.op_ms"] for p, a in zip(passes, attributed))
    metrics["trace.overhead_frac"] = statistics.median(
        p["trace.op_ms"] / p["trace.untraced_op_ms"] - 1.0 for p in passes)
    metrics.update(import_layer())
    result["problems"] += problems
    result["failed"] += len(problems)
    return metrics, result, units


# --- command line -----------------------------------------------------------------------

def run_workload(args, workload):
    if args.trace:
        metrics, result, units = per_layer(args, workload)
    else:
        metrics, result, units = end_to_end(args, workload)
    for problem in result["problems"]:
        print(f"{workload}: FAILED {problem}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}: fail_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    for name, value in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {units[name]}")
    return metrics, units, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "macontact", "cli.py")):
        print(f"error: no macontact sources under {ROOT}/src", file=sys.stderr)
        return 2
    print("stamp", json.dumps(stamp(args.seed)))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            metrics, units, attempted, failed = run_workload(args, workload)
            prefix = f"{workload}." if args.workload == "all" else ""
            total["metrics"].update({prefix + name: {"value": value, "unit": units[name]}
                                     for name, value in metrics.items()})
            total["attempted"] += attempted
            total["failed"] += failed
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_tmp"))
        except OSError:
            pass
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
