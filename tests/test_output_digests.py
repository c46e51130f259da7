"""Byte identity of the benchmark's outputs that no BLAS kernel touches.

The benchmark pools of seeds 1-8 (``perfbench/workloads.py``), warm-ups
included, are run through ``perfbench/worker.py``'s ``Runner`` in this
process, and the SHA-256 of each output (exit code, stdout, ``--out`` or
``--export`` file, library value) must match ``golden/output_digests.json``.
The manifest holds the 352 ops whose bytes do not depend on the OpenBLAS
kernel numpy picks: ``classify``, ``eval_jet``, ``contact``, ``bracket``,
``export`` and ``verify``.  ``bend``, ``prolong``, ``report`` and
``selfadjoint`` outputs differ between kernels (README), so they are left
out.  Every export goes to one fixed relative scratch path, since its
stdout names the file.

A change that moves output bytes on purpose rewrites the manifest with
``PYTHONPATH=src python tests/test_output_digests.py --write`` and
declares each moved op.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.join(ROOT, "perfbench")
MANIFEST = os.path.join(HERE, "golden", "output_digests.json")
SEEDS = range(1, 9)
TYPES = ("classify", "eval_jet", "contact", "bracket", "export", "verify")
SCRATCH = "scratch"  # relative, so the export ops' stdout is the same in every run


def _call(op) -> list:
    """The op's argv, or for a library call its name and inputs."""
    if op["call"] == "cli":
        return op["argv"]
    if op["type"] == "bracket":
        return ["lagrange_bracket", op["mu_text"], op["nu_text"], f"points={op['points']}"]
    return ["eval_jet", op["text"], f"order={op['order']}", f"points={op['points']}"]


def _outputs():
    """(workload, seed, slot, type, call, SHA-256 of the output) of every
    kept op, with the current directory holding the scratch folder."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import worker
    import workloads

    os.makedirs(SCRATCH, exist_ok=True)
    runner = worker.Runner(ROOT, SCRATCH)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            pool, warmup = workloads.generate(workload, seed)
            for slot, op in enumerate(pool + [warmup]):  # the worker's warm-up slot
                if op["type"] in TYPES:
                    out = runner.output(op, slot, runner.execute(op, slot))
                    yield workload, seed, slot, op["type"], _call(op), worker.digest(out)


def test_kernel_independent_outputs_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # Runner and the imports extend it
    with open(MANIFEST) as handle:
        expected = json.load(handle)
    got = list(_outputs())
    assert len(got) == len(expected) == 352
    for (workload, seed, slot, kind, call, digest), row in zip(got, expected):
        assert [workload, seed, slot, kind] == row[:4], "the benchmark pools changed"
        assert digest == row[4], (
            f"first moved output: {workload} seed {seed} slot {slot} ({kind}): {call}")


def _write():
    rows = [json.dumps(list(row[:4]) + [row[5]]) for row in _outputs()]
    with open(MANIFEST, "w") as handle:
        handle.write("[\n" + ",\n".join(rows) + "\n]\n")
    print(f"wrote {len(rows)} digests to {MANIFEST}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    import tempfile
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        _write()
