"""Seeded input generators for the benchmark workloads.

Every workload is a pool of operations built from ``--seed``.  The pool
has a fixed number of slots; each slot fixes the *cost class* of its
operation (operation type, grid size stratum, jet order, family degree
and kind, sample stratum) while the seed draws everything else
(coefficients, variables, ranges, base points, a value within each
stratum) and the order of the pool.  Different seeds therefore give
different inputs with the same cost profile, so runs with different
seeds measure the same thing.  A run makes whole passes over the pool.

Pool sizes are odd multiples of 5 (15 or 25), so that the median and the
90th percentile of the per-operation times fall in the middle of one
operation's share of the samples rather than on a boundary between two.
In ``jet_calculus`` and ``singular_families`` the five costliest
operations cost the same and last a few hundred ms, so that the 90th
percentile falls inside their shared block of samples and each of those
samples spans several of the sub-second swings in the machine's speed.
In ``singular_families`` five reports of one cost sit in the middle of the
pool in the same way, for the median.

Nothing here imports ``macontact``: each operation carries the data its
reference check in ``reference.py`` needs, computed independently.

An operation is a JSON-able dict with

* ``type``: which reference check applies;
* ``call``: ``"cli"`` (``argv`` for the ``macontact`` command, where the
  token ``@OUT`` stands for an output file path) or ``"lib"`` (a library
  call described by the remaining keys);
* ``code``: the exit code the CLI must return.
"""

import math

import numpy as np

CHART = ("x1", "x2", "u", "p1", "p2")
KINDS = ("minus", "zero", "plus")
SQUARE = {"minus": -1.0, "zero": 0.0, "plus": 1.0}
OUT = "@OUT"
POINTS = 8  # chart points per library bracket or jet operation

WORKLOADS = ("region_sweep", "jet_calculus", "singular_families")


def _num(c: float) -> str:
    return f"({c!r})" if c < 0 or repr(c).startswith("-") else repr(c)


def _r(x: float, digits: int = 3) -> float:
    return round(float(x), digits)


def _nonzero(x: float) -> float:
    return x if x != 0.0 else 1.0


def _stratified(rng, lo, hi, count):
    """One value near the middle of each of ``count`` equal strata of [lo, hi).

    The draw stays within the middle fifth of its stratum, so the seed
    changes the value without changing the cost profile of the pool.
    """
    return [lo + (hi - lo) * (i + 0.4 + 0.2 * rng.random()) / count for i in range(count)]


def _shuffled(rng, pool):
    return [pool[i] for i in rng.permutation(len(pool))]


# --- expression trees shared by the CLI text and the numpy reference ----------
#
# ("num", c) | ("var", name) | ("add", a, b) | ("mul", a, b) | ("sub", a, b)
# | ("pow", a, k) | ("call", func, a)

def text(node) -> str:
    """The expression in the ``macontact`` mini-language."""
    tag = node[0]
    if tag == "num":
        return _num(node[1])
    if tag == "var":
        return node[1]
    if tag in ("add", "sub", "mul"):
        op = {"add": " + ", "sub": " - ", "mul": "*"}[tag]
        return f"({text(node[1])}{op}{text(node[2])})"
    if tag == "pow":
        return f"{text(node[1])}^{node[2]}"
    if tag == "call":
        return f"{node[1]}({text(node[2])})"
    raise ValueError(f"bad node {node!r}")


_NP_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
             "ln": np.log, "sqrt": np.sqrt}


def np_value(node, env: dict):
    """Elementwise value on numpy arrays; domain errors become NaN/inf."""
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return env[node[1]]
    if tag == "add":
        return np_value(node[1], env) + np_value(node[2], env)
    if tag == "sub":
        return np_value(node[1], env) - np_value(node[2], env)
    if tag == "mul":
        return np_value(node[1], env) * np_value(node[2], env)
    if tag == "pow":
        return np_value(node[1], env) ** node[2]
    if tag == "call":
        return _NP_FUNCS[node[1]](np_value(node[2], env))
    raise ValueError(f"bad node {node!r}")


def _sum(nodes):
    out = nodes[0]
    for n in nodes[1:]:
        out = ("add", out, n)
    return out


def _monomial_node(c, powers, variables):
    node = ("num", c)
    for v, p in zip(variables, powers):
        if p:
            node = ("mul", node, ("var", v) if p == 1 else ("pow", ("var", v), p))
    return node


# --- polynomials as monomial lists [(coeff, powers)] ---------------------------

def random_monomials(rng, nvars, terms, degree):
    out = []
    for _ in range(terms):
        powers = [0] * nvars
        for _ in range(int(rng.integers(0, degree + 1))):
            powers[int(rng.integers(nvars))] += 1
        out.append((_nonzero(_r(rng.uniform(-3, 3))), tuple(powers)))
    return out


def poly_text(monomials, variables) -> str:
    return text(_sum([_monomial_node(c, p, variables) for c, p in monomials]))


# --- region_sweep: classify over 2-3 axis grids ----------------------------------

def _axis_counts(rng, cells, naxes):
    if naxes == 2:
        c1 = max(4, round(math.sqrt(cells) * math.exp(rng.uniform(-0.3, 0.3))))
        return [c1, max(4, round(cells / c1))]
    base = cells ** (1.0 / 3.0)
    c1 = max(4, round(base * math.exp(rng.uniform(-0.2, 0.2))))
    c2 = max(4, round(base * math.exp(rng.uniform(-0.2, 0.2))))
    return [c1, c2, max(4, round(cells / (c1 * c2)))]


def _poly_coeff(rng):
    return _sum([_monomial_node(c, p, CHART)
                 for c, p in random_monomials(rng, 5, 3, 3)])


def _trans_coeff(rng, choice):
    v, w = (CHART[i] for i in rng.choice(5, 2, replace=False))
    c, a, b = (_nonzero(_r(rng.uniform(-2, 2))) for _ in range(3))
    if choice == 0:
        inner = ("add", ("mul", ("num", a), ("var", v)), ("num", b))
        return ("mul", ("num", c), ("call", "sin", inner))
    if choice == 1:
        return ("mul", ("num", c), ("call", "exp", ("mul", ("num", _r(a / 2)), ("var", v))))
    return ("mul", ("num", c), ("call", "cos", ("mul", ("var", v), ("var", w))))


def region_op(rng, slot, cells):
    naxes = 2 + slot % 2
    names = [CHART[i] for i in sorted(rng.choice(5, naxes, replace=False))]
    counts = _axis_counts(rng, cells, naxes)
    axes = {n: (_r(rng.uniform(-2, -0.5)), _r(rng.uniform(0.5, 2)), c)
            for n, c in zip(names, counts)}
    fixed = {n: _r(rng.uniform(-1, 1)) for n in CHART if n not in axes}

    coeffs = {
        "N": _poly_coeff(rng) if slot % 4 == 3 else ("num", 0.0),
        "A": _poly_coeff(rng),
        "B": _trans_coeff(rng, slot % 3),
        "C": _poly_coeff(rng),
        "D": _trans_coeff(rng, (slot + 1) % 3),
    }
    domain = ("ln", "sqrt", None)[slot % 3]
    if domain:
        # the function leaves its domain on the first q of one axis, q <= 15%
        v = names[int(rng.integers(naxes))]
        lo, hi, _ = axes[v]
        root = _r(lo + rng.uniform(0.04, 0.15) * (hi - lo), 4)
        term = ("mul", ("num", _nonzero(_r(rng.uniform(-2, 2)))),
                ("call", domain, ("sub", ("var", v), ("num", root))))
        key = "ABCD"[int(rng.integers(4))]
        coeffs[key] = ("add", coeffs[key], term)

    band = float(rng.choice([1e-9, 1e-6, 1e-3]))
    fmt = "csv" if slot % 4 == 1 else "json"
    grid = ",".join(f"{n}={lo!r}:{hi!r}:{c}" for n, (lo, hi, c) in axes.items())
    argv = ["classify"]
    for name in "NABCD":
        argv += [f"--{name}", text(coeffs[name])]
    argv += ["--grid", grid, "--fixed", ",".join(f"{n}={v!r}" for n, v in fixed.items()),
             "--band", repr(band), "--format", fmt, "--out", OUT]
    return {"type": "classify", "call": "cli", "argv": argv, "code": 0,
            "coeffs": coeffs, "axes": {n: list(a) for n, a in axes.items()},
            "fixed": fixed, "band": band, "format": fmt}


def region_sweep(rng):
    sizes = _stratified(rng, 2000, 8000, 15)
    pool = [region_op(rng, slot, int(size)) for slot, size in enumerate(sizes)]
    return _shuffled(rng, pool), region_op(rng, 0, 2000)


# --- jet_calculus -------------------------------------------------------------------

def harmonic_monomials(k, coef_re, coef_im):
    """coef_re * Re (x1 + i x2)^k + coef_im * Im (x1 + i x2)^k as monomials."""
    out = []
    for j in range(k + 1):
        sign = (1, 1, -1, -1)[j % 4]
        coef = coef_re if j % 2 == 0 else coef_im
        out.append((sign * math.comb(k, j) * coef, (k - j, j)))
    return out


def _fn_text(term):
    # ("fn", name, coef, c, m): coef * name(x2 + c*x1), name in pow/sin/exp
    _, name, coef, c, m = term
    inner = f"(x2 + {_num(c)}*x1)"
    body = f"{inner}^{m}" if name == "pow" else f"{name}{inner}"
    return f"{_num(coef)}*{body}"


def solution_text(terms) -> str:
    parts = []
    for t in terms:
        if t[0] == "mono":
            parts.append(poly_text([(t[1], (t[2], t[3]))], ("x1", "x2")))
        else:
            parts.append(_fn_text(t))
    return " + ".join(parts)


def verify_op(rng, family, samples, perturbed):
    """A constant-coefficient equation with an exact solution f, or f perturbed."""
    lin = [("mono", _r(rng.uniform(-1, 1)), 1, 0), ("mono", _r(rng.uniform(-1, 1)), 0, 1)]
    eq = {"N": 0.0, "A": 0.0, "B": 0.0, "C": 0.0, "D": 0.0}
    if family == "laplace":
        scale = _r(rng.uniform(0.5, 2))
        eq.update(A=scale, C=scale)
        terms = []
        for k in (2, 3):
            for c, (a, b) in harmonic_monomials(k, _r(rng.uniform(-1, 1)),
                                                _r(rng.uniform(-1, 1))):
                terms.append(("mono", float(c), a, b))
    elif family == "wave":
        c = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        eq.update(A=1.0, C=-c * c)
        terms = [("fn", "pow", _r(rng.uniform(-1, 1)), c, 3),
                 ("fn", str(rng.choice(["sin", "exp"])), _r(rng.uniform(-1, 1)), -c, 1)]
    elif family == "monge_ampere":
        # N (f11 f22 - f12^2) + D = 0 with f quadratic
        a = _nonzero(_r(rng.uniform(-2, 2)))
        b = _nonzero(_r(rng.uniform(-2, 2)))
        eq.update(N=1.0, D=-4.0 * a * b)
        terms = [("mono", a, 2, 0), ("mono", b, 0, 2)]
    else:  # "quasilinear": A f11 + B f12 + C f22 + D = 0, f quadratic
        A, B, C = (_nonzero(_r(rng.uniform(-2, 2))) for _ in range(3))
        al, be, ga = (_r(rng.uniform(-2, 2)) for _ in range(3))
        eq.update(A=A, B=B, C=C, D=-(2 * al * A + be * B + 2 * ga * C))
        terms = [("mono", al, 2, 0), ("mono", be, 1, 1), ("mono", ga, 0, 2)]
    terms += lin
    if perturbed:
        terms.append(("mono", _r(rng.uniform(0.05, 0.5)), 2 + int(rng.integers(2)), 1))
    argv = ["verify"]
    for name in "NABCD":
        argv += [f"--{name}", _num(eq[name])]
    argv += ["--f", solution_text(terms), "--samples", str(samples),
             "--range", repr(_r(rng.uniform(0.5, 1.5))),
             "--seed", str(int(rng.integers(1 << 30)))]
    return {"type": "verify", "call": "cli", "argv": argv, "code": 1 if perturbed else 0,
            "equation": eq, "terms": terms, "samples": samples,
            "perturbed": perturbed}


def contact_op(rng):
    monomials = random_monomials(rng, 5, 6, 3)
    point = [_r(rng.uniform(-1, 1)) for _ in range(5)]
    argv = ["contact", "--nu", poly_text(monomials, CHART),
            "--point=" + ",".join(repr(p) for p in point)]
    return {"type": "contact", "call": "cli", "argv": argv, "code": 0,
            "monomials": monomials, "point": point}


def _points(rng):
    # a library op evaluates at several chart points, so that it lasts about
    # as long as the CLI ops around the median instead of a few ms
    return [[_r(rng.uniform(-1, 1)) for _ in range(5)] for _ in range(POINTS)]


def bracket_op(rng):
    mu = random_monomials(rng, 5, 6, 3)
    nu = random_monomials(rng, 5, 6, 3)
    return {"type": "bracket", "call": "lib", "code": 0,
            "mu": mu, "nu": nu, "mu_text": poly_text(mu, CHART),
            "nu_text": poly_text(nu, CHART), "points": _points(rng)}


def eval_jet_op(rng, order):
    monomials = random_monomials(rng, 5, 8, 3)
    return {"type": "eval_jet", "call": "lib", "code": 0,
            "monomials": monomials, "text": poly_text(monomials, CHART),
            "points": _points(rng), "order": order}


def normal_form_coeffs(k, kind, yscale=1.0):
    """Re and Im of (x + zeta*yscale*y)^k; entry r multiplies x^r y^(k-r)."""
    sq = SQUARE[kind]
    re, im = [0.0] * (k + 1), [0.0] * (k + 1)
    for j in range(k + 1):
        coeff = math.comb(k, j) * yscale ** j
        if j % 2 == 0:
            re[k - j] += coeff * sq ** (j // 2)
        else:
            im[k - j] += coeff * sq ** ((j - 1) // 2)
    return re, im


def hom_text(coeffs):
    k = len(coeffs) - 1
    mons = [(c, (r, k - r)) for r, c in enumerate(coeffs) if c != 0.0]
    return poly_text(mons, ("x", "y"))


def bend_op(rng, k, kind):
    re, im = normal_form_coeffs(k, kind, _r(rng.uniform(0.5, 2)))
    while True:
        m = [[_r(rng.uniform(-1, 1)) for _ in range(2)] for _ in range(2)]
        if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) >= 0.3:
            break
    q1 = [m[0][0] * a + m[0][1] * b for a, b in zip(re, im)]
    q2 = [m[1][0] * a + m[1][1] * b for a, b in zip(re, im)]
    argv = ["bend", "--k", str(k), "--q1", hom_text(q1), "--q2", hom_text(q2)]
    return {"type": "bend", "call": "cli", "argv": argv, "code": 0,
            "k": k, "kind": kind, "q1": q1, "q2": q2}


def jet_calculus(rng):
    families = ("laplace", "wave", "monge_ampere", "quasilinear")
    samples = _stratified(rng, 20, 120, 8)
    pool = [verify_op(rng, families[i % 4], int(samples[i]), perturbed=i % 2 == 1)
            for i in range(8)]
    pool += [verify_op(rng, "quasilinear", int(s), False)
             for s in _stratified(rng, 595, 605, 5)]
    pool += [eval_jet_op(rng, order) for order in (3, 4, 5, 6)]
    pool += [bend_op(rng, int(k), KINDS[i]) for i, k in
             enumerate(rng.choice(np.arange(4, 9), 3, replace=False))]
    pool += [bracket_op(rng) for _ in range(3)]
    pool += [contact_op(rng) for _ in range(2)]
    return _shuffled(rng, pool), verify_op(rng, "laplace", 20, False)


# --- singular_families -----------------------------------------------------------

def report_op(rng, k, l, kind, samples):
    radius = _r(rng.uniform(0.2, 1.0))
    argv = ["rmanifold", "--k", str(k), "--l", str(l), "--kind", kind,
            "--samples", str(samples), "--radius", repr(radius)]
    return {"type": "report", "call": "cli", "argv": argv, "code": 0,
            "k": k, "l": l, "kind": kind, "samples": samples, "radius": radius}


def export_op(rng, k, l, kind, count):
    argv = ["rmanifold", "--k", str(k), "--l", str(l), "--kind", kind,
            "--export", OUT, "--count", str(count),
            "--param-range", repr(_r(rng.uniform(0.5, 1.2))),
            "--seed", str(int(rng.integers(1 << 30)))]
    return {"type": "export", "call": "cli", "argv": argv, "code": 0,
            "k": k, "l": l, "kind": kind, "count": count}


def prolong_op(rng, k, kind):
    return {"type": "prolong", "call": "lib", "code": 0, "k": k, "kind": kind,
            "steps": 1 + int(rng.integers(3))}


def _symplectic(rng):
    """A seeded well-conditioned symplectic matrix for J = [[0, I], [-I, 0]]."""
    def sym():
        a, b, c = (rng.uniform(-0.5, 0.5) for _ in range(3))
        return np.array([[a, b], [b, c]])
    t = rng.uniform(0, 2 * math.pi)
    s = math.exp(rng.uniform(-0.3, 0.3))
    g = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]) @ np.diag([s, 1 / s])
    eye, zero = np.eye(2), np.zeros((2, 2))
    lower = np.block([[eye, zero], [sym(), eye]])
    mid = np.block([[g, zero], [zero, np.linalg.inv(g).T]])
    upper = np.block([[eye, sym()], [zero, eye]])
    return lower @ mid @ upper


def selfadjoint_op(rng, kind):
    """S diag(F, F^T) S^-1 with S symplectic, F chosen for the operator type."""
    lam = _r(rng.uniform(-2, 2))
    if kind == "scalar":
        f, eig = lam * np.eye(2), [lam]
    elif kind == "elliptic":
        mu = _r(rng.uniform(0.5, 2))
        f, eig = np.array([[lam, -mu], [mu, lam]]), [lam, mu]
    elif kind == "hyperbolic":
        gap = _r(rng.uniform(0.5, 2))
        p = np.array([[1.0, _r(rng.uniform(-1, 1))], [0.0, 1.0]])
        f = p @ np.diag([lam, lam + gap]) @ np.linalg.inv(p)
        eig = [lam, lam + gap]
    else:  # parabolic
        f, eig = np.array([[lam, _nonzero(_r(rng.uniform(-2, 2)))], [0.0, lam]]), [lam]
    m = np.zeros((4, 4))
    m[:2, :2], m[2:, 2:] = f, f.T
    s = _symplectic(rng) if kind != "scalar" else np.eye(4)
    m = s @ m @ np.linalg.inv(s)
    space = str(rng.choice(["standard", "darboux"]))
    entries = [float(v) for v in m.ravel()]
    argv = ["selfadjoint", "--matrix=" + ",".join(repr(v) for v in entries),
            "--space", space]
    return {"type": "selfadjoint", "call": "cli", "argv": argv, "code": 0,
            "kind": kind, "eig": eig, "matrix": entries, "space": space}


# (k, l, kind, samples) of the reports: k = 2..8, l = 2..5, every kind,
# 20-64 samples (every plus-kind count puts samples inside the null-cone
# sector).  Heavier families get fewer samples.  Sorted by cost, the pool
# holds 8 cheap operations, 2 cheaper reports, 5 reports of one spec (only
# the seeded radius differs, which does not change the cost), 5 costlier
# reports and the 5 exports, so the median falls in the middle of the block
# of equal-cost reports, as the 90th percentile falls among the exports.
REPORTS = ((2, 2, "minus", 64), (5, 2, "plus", 40)) + ((4, 3, "minus", 48),) * 5 + (
    (7, 4, "zero", 24), (7, 3, "plus", 32), (3, 5, "plus", 64),
    (6, 5, "zero", 28), (8, 4, "minus", 20))
# kinds of the five exports, the costliest ops; the dual numbers skip the
# consistency gate in family_point and would cost less
EXPORTS = ("minus", "plus", "minus", "plus", "minus")
OPERATORS = ("scalar", "elliptic", "hyperbolic", "parabolic")


def singular_families(rng):
    pool = [report_op(rng, *spec) for spec in REPORTS]
    pool += [export_op(rng, 7, 4, kind, int(count))
             for kind, count in zip(EXPORTS, _stratified(rng, 595, 605, 5))]
    for i in range(4):
        pool += [prolong_op(rng, 2 + i, KINDS[i % 3]), selfadjoint_op(rng, OPERATORS[i])]
    return _shuffled(rng, pool), report_op(rng, 2, 2, "minus", 16)


GENERATORS = {
    "region_sweep": region_sweep,
    "jet_calculus": jet_calculus,
    "singular_families": singular_families,
}


def generate(workload: str, seed: int):
    """(pool, warm-up op) for the workload; identical for identical seeds."""
    return GENERATORS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))
