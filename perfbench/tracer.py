"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public functions of ``macontact`` with
wrappers that time each call.  A function imported by name into several
modules (``parse`` lives in ``expr``, ``cli``, ``monge_ampere`` and the
package) is replaced in every namespace that binds it, so no call path
escapes.  ``uninstall`` restores the originals; untraced runs never see a
wrapper.

Each call is a span; its self time is its duration minus the spans it
encloses.  The layer of a span is the module that defines the function,
so the layer self times partition the traced time.  A re-entrant call of
the function being timed (``find_nan`` recurses through its module
global) runs unwrapped inside the outer span.
"""

import importlib
import sys
from time import perf_counter_ns

LAYERS = ("expr", "zeta", "symplectic", "contact", "monge_ampere", "bends",
          "rmanifold", "cli")


def _jet_key(tracer, args, kwargs, result, ns):
    base = args[1] if len(args) > 1 else kwargs["base"]
    order = args[2] if len(args) > 2 else kwargs["order"]
    key = f"expr.eval_jet.n{len(base)}o{order}"
    tracer.add(key + "_calls", 1)
    tracer.add(key + "_ms", ns / 1e6)


def _region_cells(tracer, args, kwargs, result, ns):
    tracer.add("monge_ampere.cells", len(result.cells))
    tracer.add("monge_ampere.error_cells", sum(1 for c in result.cells if c.error))


def _dumps_bytes(tracer, args, kwargs, result, ns):
    tracer.add("cli.dumps_bytes", len(result.encode()))


# (module, attribute, "span" or "count", hook run after a successful call)
SPECS = (
    ("cli", "main", "span", None),
    ("cli", "dumps", "span", _dumps_bytes),
    ("cli", "find_nan", "span", None),
    ("expr", "parse", "span", None),
    ("expr", "Expr.eval", "span", None),
    ("expr", "Expr.eval_jet", "span", _jet_key),
    ("expr", "Jet.__mul__", "span", None),
    ("zeta", "ZetaNum.__mul__", "count", None),
    ("zeta", "ZetaNum.__pow__", "span", None),
    ("symplectic", "classify_dim4", "span", None),
    ("contact", "contact_field", "span", None),
    ("contact", "lagrange_bracket", "span", None),
    ("monge_ampere", "classify_region", "span", _region_cells),
    ("monge_ampere", "invariance_defect", "span", None),
    ("bends", "is_bend", "span", None),
    ("bends", "structure_matrix", "span", None),
    ("bends", "classify_bend", "span", None),
    ("bends", "normal_form", "span", None),
    ("bends", "prolong_bend", "span", None),
    ("bends", "span_angle", "span", None),
    ("rmanifold", "family_point", "span", None),
    ("rmanifold", "singular_point_report", "span", None),
    ("rmanifold", "write_point_cloud", "span", None),
)


def _metric_name(layer, attribute):
    name = attribute.rpartition(".")[2]
    if attribute == "Jet.__mul__":
        return f"{layer}.jet_mul"
    return f"{layer}.{name.strip('_')}"


class Tracer:
    """Span totals for one batch of traced operations."""

    def __init__(self):
        self.stats = {}     # metric -> [calls, total ns, self ns]
        self.layer = {}     # metric -> layer
        self.values = {}    # extra counts and times from hooks
        self.counted = set()  # metrics counted without timing
        self.top_ns = 0     # time inside outermost spans
        self._stack = []    # enclosed-time accumulators of the open spans
        self._active = set()
        self._patches = []

    def add(self, name, amount):
        self.values[name] = self.values.get(name, 0) + amount

    def _span(self, metric, orig, hook):
        stats = self.stats.setdefault(metric, [0, 0, 0])
        stack, active = self._stack, self._active

        def wrapper(*args, **kwargs):
            if metric in active:
                return orig(*args, **kwargs)
            active.add(metric)
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                ns = perf_counter_ns() - start
                enclosed = stack.pop()
                active.discard(metric)
                stats[0] += 1
                stats[1] += ns
                stats[2] += ns - enclosed
                if stack:
                    stack[-1] += ns
                else:
                    self.top_ns += ns
            if hook is not None:
                hook(self, args, kwargs, result, ns)
            return result
        return wrapper

    def _count(self, metric, orig):
        stats = self.stats.setdefault(metric, [0, 0, 0])
        self.counted.add(metric)

        def wrapper(*args, **kwargs):
            stats[0] += 1
            return orig(*args, **kwargs)
        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "macontact" or name.startswith("macontact.")]
        for layer, attribute, mode, hook in SPECS:
            module = importlib.import_module(f"macontact.{layer}")
            metric = _metric_name(layer, attribute)
            self.layer[metric] = layer
            owner_name, _, name = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                orig = owner.__dict__[name]
                targets = [(owner, name)]
            else:
                orig = getattr(module, name)
                targets = [(m, key) for m in modules
                           for key, value in list(vars(m).items()) if value is orig]
            wrapper = (self._span(metric, orig, hook) if mode == "span"
                       else self._count(metric, orig))
            for owner, key in targets:
                setattr(owner, key, wrapper)
                self._patches.append((owner, key, orig))

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def metrics(self) -> dict:
        """Flat totals: <metric>_calls, _ms, _self_ms and <layer>.self_ms."""
        out = dict(self.values)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for metric, (calls, total, own) in self.stats.items():
            out[f"{metric}_calls"] = calls
            if metric not in self.counted:
                out[f"{metric}_ms"] = total / 1e6
                out[f"{metric}_self_ms"] = own / 1e6
            layer_self[self.layer[metric]] += own / 1e6
        for layer, ms in layer_self.items():
            out[f"{layer}.self_ms"] = ms
        out["trace.spans_ms"] = self.top_ns / 1e6
        return out
