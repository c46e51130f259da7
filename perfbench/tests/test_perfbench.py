"""Tests of the benchmark itself: seeded inputs, reference checks, tracing."""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import reference
import run
import workloads
from conftest import BENCH, ROOT
from tracer import Tracer
from worker import Runner


def dumped(workload, seed):
    return json.dumps(workloads.generate(workload, seed))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload):
    assert dumped(workload, 7) == dumped(workload, 7)
    assert dumped(workload, 7) != dumped(workload, 8)


def test_region_errors_stay_below_the_cli_limit():
    for seed in range(1, 21):
        pool, warmup = workloads.generate("region_sweep", seed)
        for op in pool + [warmup]:
            _, error, _, _ = reference.region_reference(op)
            assert error.mean() < 0.25


# --- reference checks flag corrupted outputs ------------------------------------------

def _edit_json(key_path, change):
    def corrupt(out, field="stdout"):
        data = json.loads(out[field])
        target = data
        for key in key_path[:-1]:
            target = target[key]
        target[key_path[-1]] = change(target[key_path[-1]])
        out[field] = json.dumps(data)
    return corrupt


def _bump(x):
    return x + 1e-3 * (1.0 + abs(x))


def _first_finite_cell(out):
    data = json.loads(out["file"])
    i = next(i for i, c in enumerate(data["cells"]) if c["delta"] is not None)
    return data, data["cells"][i]


def _cell_delta(out):
    data, cell = _first_finite_cell(out)
    cell["delta"] = _bump(cell["delta"])
    out["file"] = json.dumps(data)


def _cell_type(out):
    data, cell = _first_finite_cell(out)
    cell["type"] = "elliptic" if cell["type"] != "elliptic" else "hyperbolic"
    out["file"] = json.dumps(data)


def _csv_row(out):
    lines = out["file"].splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[1])
    index, delta, rest = lines[i].split(",", 2)
    lines[i] = ",".join([index, repr(_bump(float(delta))), rest])
    out["file"] = "\n".join(lines) + "\n"


def _export_cell(out):
    lines = out["file"].splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(_bump(float(cells[2])))
    lines[1] = ",".join(cells)
    out["file"] = "\n".join(lines) + "\n"


def _value(change):
    def corrupt(out):
        out["value"] = change(out["value"])
    return corrupt


def _jet_value(value):
    value[-1][3][1] = _bump(value[-1][3][1])
    return value


def _prolong_kind(chain):
    chain[-1]["kind"] = "plus" if chain[-1]["kind"] != "plus" else "minus"
    return chain


def _prolong_q(chain):
    chain[-1]["q1"][0] = _bump(chain[-1]["q1"][0])
    return chain


def _flip_kind(kind):
    return {"minus": "plus", "plus": "zero", "zero": "minus"}[kind]


def _ops():
    rng = np.random.default_rng(5)
    return {
        "classify-json": (workloads.region_op(rng, 0, 300),
                          [_cell_delta, _cell_type]),
        "classify-csv": (workloads.region_op(rng, 1, 300), [_csv_row]),
        "verify-exact": (workloads.verify_op(rng, "wave", 20, False),
                         [_edit_json(["samples", 3, "residual"], _bump),
                          _edit_json(["passed"], lambda p: not p)]),
        "verify-perturbed": (workloads.verify_op(rng, "monge_ampere", 20, True),
                             [_edit_json(["samples", 0, "defect"], lambda d: 0.0)]),
        "contact": (workloads.contact_op(rng),
                    [_edit_json(["components", 3], _bump), _edit_json(["omega"], _bump)]),
        "bracket": (workloads.bracket_op(rng), [_value(lambda v: v[:-1] + [_bump(v[-1])]),
                                                _value(lambda v: [-x for x in v]),
                                                _value(lambda v: v[1:])]),
        "eval_jet": (workloads.eval_jet_op(rng, 3), [_value(_jet_value),
                                                     _value(lambda v: [j[:-1] for j in v])]),
        "bend": (workloads.bend_op(rng, 4, "plus"),
                 [_edit_json(["kind"], _flip_kind),
                  _edit_json(["witness", "f", 1], _bump),
                  _edit_json(["matrix", 0], _bump)]),
        "report": (workloads.report_op(rng, 3, 2, "plus", 32),
                   [_edit_json(["samples", 0, "det"], _bump),
                    _edit_json(["unique_singular_point"], lambda u: not u),
                    _edit_json(["excluded_null_cone"], lambda e: e[1:])]),
        "export": (workloads.export_op(rng, 3, 3, "minus", 20), [_export_cell]),
        "prolong": (workloads.prolong_op(rng, 3, "zero"), [_value(_prolong_kind),
                                                           _value(_prolong_q)]),
        "selfadjoint": (workloads.selfadjoint_op(rng, "hyperbolic"),
                        [_edit_json(["eigenvalues", 0, 0], _bump),
                         _edit_json(["type"], lambda t: "elliptic")]),
        "selfadjoint-parabolic": (workloads.selfadjoint_op(rng, "parabolic"),
                                  [_edit_json(["lagrangian_plane", 0, 1], _bump)]),
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    runner = Runner(ROOT, str(tmp_path_factory.mktemp("ops")))
    ops = _ops()
    return {name: (op, corruptions, runner.output(op, 0, runner.execute(op, 0)))
            for name, (op, corruptions) in ops.items()}


@pytest.mark.parametrize("name", sorted(_ops()))
def test_reference_accepts_the_program_output(outputs, name):
    op, _, out = outputs[name]
    assert reference.check(op, out) == []


@pytest.mark.parametrize("name", sorted(_ops()))
def test_reference_flags_corrupted_output(outputs, name):
    op, corruptions, out = outputs[name]
    for corrupt in corruptions:
        bad = copy.deepcopy(out)
        corrupt(bad)
        assert bad != out
        assert reference.check(op, bad), corrupt


def test_reference_flags_wrong_exit_code(outputs):
    op, _, out = outputs["verify-perturbed"]
    assert reference.check(op, dict(out, code=0))


# --- tracing -------------------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores_them():
    import macontact
    import macontact.cli
    import macontact.expr
    import macontact.monge_ampere
    original = macontact.expr.parse
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = macontact.expr.parse
        assert wrapped is not original
        for module in (macontact, macontact.cli, macontact.monge_ampere):
            assert module.parse is wrapped
        macontact.cli.main(["contact", "--nu", "u*p1", "--out", os.devnull])
    finally:
        tracer.uninstall()
    assert macontact.cli.parse is original and macontact.parse is original
    metrics = tracer.metrics()
    assert metrics["expr.parse_calls"] == 1
    assert metrics["contact.contact_field_calls"] == 1
    assert metrics["cli.main_calls"] == 1


def _traced_counts(workload):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, input="run\n", capture_output=True, text=True,
                          env=run.child_env(), check=True, timeout=300)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["problems"]
    (counts,) = [{k: v for k, v in p.items() if k.endswith(("_calls", "cells", "_bytes"))}
                 for p in result["passes"]]
    return counts


@pytest.mark.parametrize("workload", ["jet_calculus", "singular_families"])
def test_counts_repeat_across_traced_runs(workload):
    first = _traced_counts(workload)
    assert first and any(first.values())
    assert _traced_counts(workload) == first


def test_importtime_tree_finds_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        30 |         30 |     numpy.linalg",
        "import time:        70 |        100 |   scipy.linalg",
        "import time:        10 |        260 | macontact",
    ])
    tree = run.importtime_tree(stderr)
    # numpy.linalg imported by scipy.linalg counts for both packages
    assert run.outermost_ms(tree, "numpy") == 0.18
    assert run.outermost_ms(tree, "scipy") == 0.1
    assert run.outermost_ms(tree, "macontact") == 0.26


# --- the benchmark's contract ----------------------------------------------------------

def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "jet_calculus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
