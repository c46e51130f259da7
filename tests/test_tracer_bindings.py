"""``perfbench/tracer.py`` wraps the ``macontact`` names that its ``SPECS``
list (``Jet.__mul__``, ``cli.find_nan``, ...), so deleting or renaming one
breaks ``perfbench/run.py --trace 1``.  This installs and uninstalls the
tracer in process, loaded from its file; nothing under ``perfbench/`` is
written."""

import importlib
import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _bindings(namespaces) -> dict:
    return {(space, key): value for space in namespaces for key, value in vars(space).items()}


def test_tracer_wraps_every_listed_name_and_restores_every_binding():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer in tracer.LAYERS:
        importlib.import_module(f"macontact.{layer}")
    traced = []  # the class or module that binds each listed name, and the name
    for layer, attribute, _, _ in tracer.SPECS:
        owner, _, name = attribute.rpartition(".")
        module = sys.modules[f"macontact.{layer}"]
        traced.append((getattr(module, owner) if owner else module, name))
    namespaces = [m for key, m in sys.modules.items() if key.split(".")[0] == "macontact"]
    namespaces += [owner for owner, _ in traced]
    before = _bindings(namespaces)
    spans = tracer.Tracer()
    try:
        spans.install()  # fails on a listed name that no longer exists
        unwrapped = [name for owner, name in traced if vars(owner)[name] is before[owner, name]]
    finally:
        spans.uninstall()
    assert unwrapped == []
    after = _bindings(namespaces)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
