"""Reference checks for every operation, independent of ``macontact``.

Each check takes the operation from ``workloads.py`` and its output, a
dict with ``code`` (exit code), ``stdout``, ``file`` (the ``--out`` or
``--export`` file, if any) and ``value`` (the JSON-able result of a
library call), and returns a list of problems; an empty list means the
output is correct.  The expected values come from closed forms computed
here with Python floats, ``complex`` and numpy, never from the code under
test.
"""

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

from workloads import CHART, SQUARE, normal_form_coeffs, np_value

REL = 1e-9


def _close(got, want, scale, rel=REL):
    return abs(got - want) <= rel * (abs(want) + scale) + 1e-300


def _json(out, problems):
    try:
        return json.loads(out["stdout"])
    except (TypeError, ValueError) as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


# --- region_sweep ------------------------------------------------------------------

def _label(delta, band):
    if delta == 0.0:
        return "parabolic"
    if abs(delta) <= band:
        return "band"
    return "elliptic" if delta < 0 else "hyperbolic"


def region_reference(op):
    """Delta, per-cell error mask and term scale on the grid, row-major."""
    names = [n for n in CHART if n in op["axes"]]
    axes = [np.linspace(lo, hi, int(c)) for lo, hi, c in (op["axes"][n] for n in names)]
    mesh = np.meshgrid(*axes, indexing="ij")
    env = {n: np.full(mesh[0].shape, float(op["fixed"].get(n, 0.0))) for n in CHART}
    env.update(zip(names, mesh))
    with np.errstate(all="ignore"):
        vals = {k: np.broadcast_to(np.asarray(np_value(node, env), dtype=float),
                                   mesh[0].shape).ravel()
                for k, node in op["coeffs"].items()}
        n, a, b, c, d = (vals[k] for k in "NABCD")
        delta = b * b - 4.0 * a * c + 4.0 * n * d
        scale = np.abs(b * b) + np.abs(4.0 * a * c) + np.abs(4.0 * n * d)
    error = ~np.all([np.isfinite(vals[k]) for k in "NABCD"], axis=0)
    index = np.array(np.unravel_index(np.arange(delta.size), mesh[0].shape)).T
    return delta, error, scale, index


def check_classify(op, out):
    problems = []
    if out["code"] != 0:
        return [f"exit code {out['code']}"]
    body = out["file"]
    if op["format"] == "csv":
        rows = body.splitlines()
        if rows[0] != "index,delta,type,error":
            return [f"bad CSV header {rows[0]!r}"]
        cells = []
        for row in rows[1:]:
            idx, delta, kind, error = row.split(",", 3)
            cells.append(([int(i) for i in idx.split(";")],
                          float(delta) if delta else None, kind or None, error or None))
    else:
        try:
            data = json.loads(body)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        grid = data["grid"]
        if grid["band"] != op["band"] or grid["fixed"] != op["fixed"] or \
                {k: list(v) for k, v in grid["axes"].items()} != op["axes"]:
            problems.append("grid echo differs from the request")
        cells = [(c["index"], c["delta"], c["type"], c.get("error")) for c in data["cells"]]
    delta, error, scale, index = region_reference(op)
    if len(cells) != delta.size:
        return problems + [f"{len(cells)} cells, expected {delta.size}"]
    for i, (idx, got, kind, err) in enumerate(cells):
        if list(idx) != index[i].tolist():
            problems.append(f"cell {i}: index {idx}, expected {index[i].tolist()}")
        elif error[i]:
            if got is not None or kind is not None or not err:
                problems.append(f"cell {idx}: expected a domain error")
        elif got is None or err is not None:
            problems.append(f"cell {idx}: unexpected error {err!r}")
        elif not _close(got, delta[i], scale[i]):
            problems.append(f"cell {idx}: delta {got!r}, expected {delta[i]!r}")
        elif kind != _label(got, op["band"]):
            problems.append(f"cell {idx}: type {kind!r} for delta {got!r}")
        if len(problems) > 5:
            break
    return problems


# --- jet_calculus -------------------------------------------------------------------

def _mono_derivative(c, powers, alpha, point):
    """d^alpha of c * prod x^p at the point, and the same with |.| (a scale)."""
    value = c
    for p, a, x in zip(powers, alpha, point):
        if a > p:
            return 0.0, 0.0
        value *= math.perm(p, a) * x ** (p - a)
    return value, abs(value)


def poly_derivative(monomials, alpha, point):
    total = scale = 0.0
    for c, powers in monomials:
        v, s = _mono_derivative(c, powers, alpha, point)
        total += v
        scale += s
    return total, scale


def _unit(i, n=5):
    return tuple(1 if j == i else 0 for j in range(n))


def _term_hessian(term, x1, x2):
    """(f11, f12, f22) of one solution term at (x1, x2)."""
    if term[0] == "mono":
        _, c, a, b = term
        h = [_mono_derivative(c, (a, b), alpha, (x1, x2))[0]
             for alpha in ((2, 0), (1, 1), (0, 2))]
    else:
        _, name, coef, c, m = term
        t = x2 + c * x1
        second = {"pow": lambda: m * (m - 1) * t ** (m - 2) if m >= 2 else 0.0,
                  "sin": lambda: -math.sin(t), "exp": lambda: math.exp(t)}[name]()
        g = coef * second
        h = [c * c * g, c * g, g]
    return h


def check_verify(op, out):
    problems = []
    if out["code"] != op["code"]:
        problems.append(f"exit code {out['code']}, expected {op['code']}")
    data = _json(out, problems)
    if data is None:
        return problems
    if data["passed"] != (not op["perturbed"]):
        problems.append(f"passed={data['passed']} for perturbed={op['perturbed']}")
    if len(data["samples"]) != op["samples"]:
        problems.append(f"{len(data['samples'])} samples, expected {op['samples']}")
    eq = op["equation"]
    worst = 0.0
    for s in data["samples"]:
        x1, x2 = s["base"]
        f11 = f12 = f22 = 0.0
        for term in op["terms"]:
            h11, h12, h22 = _term_hessian(term, x1, x2)
            f11, f12, f22 = f11 + h11, f12 + h12, f22 + h22
        parts = (eq["N"] * f11 * f22, eq["N"] * f12 * f12, eq["A"] * f11,
                 eq["B"] * f12, eq["C"] * f22, eq["D"])
        want = parts[0] - parts[1] + sum(parts[2:])
        scale = 1.0 + sum(abs(p) for p in parts)
        if abs(s["residual"] - want) > 1e-9 * scale:
            problems.append(f"residual {s['residual']!r} at {s['base']}, expected {want!r}")
        # the e4 part of frak_A(Z1) is -2E, so the defect is at least 2|E|
        if s["defect"] < 2.0 * abs(want) - 1e-9 * scale:
            problems.append(f"defect {s['defect']!r} below 2|E| = {2 * abs(want)!r}")
        worst = max(worst, abs(s["residual"]))
        if len(problems) > 5:
            break
    if data["max_residual"] != worst:
        problems.append("max_residual is not the largest sample residual")
    return problems


def check_contact(op, out):
    problems = []
    if out["code"] != 0:
        return [f"exit code {out['code']}"]
    data = _json(out, problems)
    if data is None:
        return problems
    pt, mons = op["point"], op["monomials"]
    nu, s0 = poly_derivative(mons, (0,) * 5, pt)
    (nx1, sx1), (nx2, sx2), (nu_u, su), (np1, sp1), (np2, sp2) = (
        poly_derivative(mons, _unit(i), pt) for i in range(5))
    p1, p2 = pt[3], pt[4]
    want = [(-np1, sp1), (-np2, sp2),
            (nu - p1 * np1 - p2 * np2, s0 + abs(p1) * sp1 + abs(p2) * sp2),
            (nx1 + p1 * nu_u, sx1 + abs(p1) * su), (nx2 + p2 * nu_u, sx2 + abs(p2) * su)]
    for i, (got, (w, s)) in enumerate(zip(data["components"], want)):
        if not _close(got, w, s):
            problems.append(f"component {i}: {got!r}, expected {w!r}")
    if not _close(data["omega"], nu, s0 + 1.0):
        problems.append(f"omega {data['omega']!r}, expected nu = {nu!r}")
    return problems


def lagrange_bracket(mu, nu, pt):
    """{mu, nu} = sum_i (nu_pi D_i mu - mu_pi D_i nu) + mu nu_u - nu mu_u.

    D_i = d/dx_i + p_i d/du; the sign makes {x1, p1} = +1.  Returns the
    bracket and the sum of absolute values of its terms.
    """
    f, sf = poly_derivative(mu, (0,) * 5, pt)
    g, sg = poly_derivative(nu, (0,) * 5, pt)
    df = [poly_derivative(mu, _unit(i), pt) for i in range(5)]
    dg = [poly_derivative(nu, _unit(i), pt) for i in range(5)]
    terms = []
    for i, p in ((0, pt[3]), (1, pt[4])):
        d_mu = df[i][0] + p * df[2][0]
        d_nu = dg[i][0] + p * dg[2][0]
        terms += [dg[3 + i][0] * d_mu, -df[3 + i][0] * d_nu]
    terms += [f * dg[2][0], -g * df[2][0]]
    # the floor keeps the tolerance at roundoff of the generators' size when
    # every term happens to vanish
    scale = sum(abs(t) for t in terms) + (sf + sg) * 1e-3
    return sum(terms), scale


def check_bracket(op, out):
    if len(out["value"]) != len(op["points"]):
        return [f"{len(out['value'])} brackets for {len(op['points'])} points"]
    problems = []
    for got, pt in zip(out["value"], op["points"]):
        want, scale = lagrange_bracket(op["mu"], op["nu"], pt)
        if not _close(got, want, scale):
            problems.append(f"bracket {got!r} at {pt}, expected {want!r}")
    return problems


def check_eval_jet(op, out):
    if len(out["value"]) != len(op["points"]):
        return [f"{len(out['value'])} jets for {len(op['points'])} points"]
    problems = []
    order = op["order"]
    expected = math.comb(5 + order, 5)
    for jet, pt in zip(out["value"], op["points"]):
        seen = set()
        for alpha, coeff in jet:
            alpha = tuple(alpha)
            seen.add(alpha)
            fact = math.prod(math.factorial(a) for a in alpha)
            want, scale = poly_derivative(op["monomials"], alpha, pt)
            if not _close(coeff * fact, want, scale):
                problems.append(f"d{alpha} at {pt}: {coeff * fact!r}, expected {want!r}")
        if len(seen) != expected or any(sum(a) > order for a in seen):
            problems.append(f"{len(seen)} coefficients, expected {expected} up to order {order}")
        if len(problems) > 5:
            break
    return problems


def _dx(coeffs):
    """x-derivative; entry r multiplies x^r y^(k-r)."""
    return [r * coeffs[r] for r in range(1, len(coeffs))]


def _dy(coeffs):
    k = len(coeffs) - 1
    return [(k - r) * coeffs[r] for r in range(k)]


def _in_span(vectors, basis):
    """Largest relative least-squares residual of the vectors against the basis."""
    b = np.column_stack(basis)
    worst = 0.0
    for v in vectors:
        v = np.asarray(v, dtype=float)
        sol, *_ = np.linalg.lstsq(b, v, rcond=None)
        worst = max(worst, float(np.abs(b @ sol - v).max())
                    / (1.0 + float(np.abs(v).max()) + float(np.abs(b).max())))
    return worst


def _independent(u, v):
    s = np.linalg.svd(np.column_stack([u, v]), compute_uv=False)
    return s[1] > 1e-8 * s[0]


def _kind_of(alpha, beta, gamma, delta):
    c = ((alpha - delta) / 2.0) ** 2 + beta * gamma
    scale = max(1.0, abs(alpha), abs(beta), abs(gamma), abs(delta)) ** 2
    if c < -1e-9 * scale:
        return "minus"
    return "plus" if c > 1e-9 * scale else "zero"


def check_bend(op, out):
    problems = []
    if out["code"] != 0:
        return [f"exit code {out['code']}"]
    data = _json(out, problems)
    if data is None:
        return problems
    if data.get("is_bend") is not True:
        return [f"is_bend {data.get('is_bend')!r} for a {op['kind']} normal form"]
    if data["kind"] != op["kind"]:
        problems.append(f"kind {data['kind']!r}, expected {op['kind']!r}")
    f, g = data["witness"]["f"], data["witness"]["g"]
    if len(f) != op["k"] + 2 or not _independent(f, g):
        problems.append("witness is not two independent polynomials of degree k+1")
        return problems
    residual = _in_span([_dx(f), _dy(f), _dx(g), _dy(g)], [op["q1"], op["q2"]])
    if residual > 1e-8:
        problems.append(f"witness derivatives leave span(q1, q2) by {residual:.3g}")
    alpha, beta, gamma, delta = data["matrix"]
    gx = np.array(_dx(g))
    gy = np.array(_dy(g))
    fx, fy = np.array(_dx(f)), np.array(_dy(f))
    err = max(np.abs(gx - alpha * fx - beta * fy).max(), np.abs(gy - gamma * fx - delta * fy).max())
    if err > 1e-8 * (1.0 + np.abs(gx).max() + np.abs(gy).max()):
        problems.append(f"structure matrix misses g_x, g_y by {err:.3g}")
    if _kind_of(alpha, beta, gamma, delta) != op["kind"]:
        problems.append("structure matrix sign does not give the stated kind")
    return problems


# --- singular_families ---------------------------------------------------------------

def zpow(a, b, sq, n):
    """(Re, Im) of (a + zeta b)^n: complex numbers, the (a +- b)^n split, or duals."""
    if n == 0:
        return 1.0, 0.0
    if sq < 0:
        w = complex(a, b) ** n
        return w.real, w.imag
    if sq > 0:
        p, m = (a + b) ** n, (a - b) ** n
        return (p + m) / 2.0, (p - m) / 2.0
    return a ** n, n * a ** (n - 1) * b


def shifted_factorial(r, l):
    return float(math.prod((Fraction(j) + Fraction(1, l) for j in range(1, r + 1)), start=Fraction(1)))


def family_reference(k, l, kind, a, b):
    """Closed-form point of L_{k,l} at (a, b): {name: (value, scale)}."""
    sq = SQUARE[kind]
    big = shifted_factorial(k, l)
    mag = abs(a) + abs(b)
    re, im = zpow(a, b, sq, l)
    out = {"x": (re / big ** l, l * mag ** l / big ** l),
           "y": (sq * im / big ** l, l * mag ** l / big ** l)}
    u = {(k, 0): (a, 0.0), (k - 1, 1): (b, 0.0)}
    for r in range(1, k + 1):
        n = l * r + 1
        scale = shifted_factorial(r, l) * big ** (l * r)
        re, im = zpow(a, b, sq, n)
        u[(k - r, 0)] = (re / scale, n * mag ** n / scale)
        if k - r - 1 >= 0:
            u[(k - r - 1, 1)] = (im / scale, n * mag ** n / scale)
    for q in range(2, k + 1):
        for p in range(k - q + 1):
            v, s = u[(p + 2, q - 2)]
            u[(p, q)] = (sq * v, s)
    out.update({f"u_{{{p},{q}}}": v for (p, q), v in u.items()})
    return out


def base_jacobian(k, l, kind, a, b):
    """Rows d/da and d/db of (x, y) on L_{k,l}, exactly."""
    sq = SQUARE[kind]
    big = shifted_factorial(k, l) ** l
    re, im = zpow(a, b, sq, l - 1)
    da = (l * re, l * im)                 # d/da s^l = l s^(l-1)
    db = (l * sq * im, l * re)            # d/db s^l = l zeta s^(l-1)
    return [[da[0] / big, sq * da[1] / big], [db[0] / big, sq * db[1] / big]]


def check_report(op, out):
    problems = []
    if out["code"] != 0:
        return [f"exit code {out['code']}"]
    data = _json(out, problems)
    if data is None:
        return problems
    k, l, kind, n = op["k"], op["l"], op["kind"], op["samples"]
    radius = op["radius"]
    kept, excluded = [], []
    for rho in (radius, 2.0 * radius):
        for i in range(n):
            t = 2.0 * math.pi * (i + 0.5) / n
            a, b = rho * math.cos(t), rho * math.sin(t)
            near_cone = kind == "plus" and abs(a * a - b * b) < 0.2 * rho * rho
            (excluded if near_cone else kept).append((a, b))
    got_excluded = [tuple(p) for p in data["excluded_null_cone"]]
    if len(got_excluded) != len(excluded) or any(
            not (_close(x, y, 1.0) and _close(u, v, 1.0))
            for (x, u), (y, v) in zip(got_excluded, excluded)):
        problems.append("excluded null-cone directions differ from the sector rule")
    if len(data["samples"]) != len(kept):
        return problems + [f"{len(data['samples'])} kept samples, expected {len(kept)}"]
    for s, (a, b) in zip(data["samples"], kept):
        if not (_close(s["params"][0], a, 1.0) and _close(s["params"][1], b, 1.0)):
            problems.append(f"sample at {s['params']}, expected {(a, b)}")
            continue
        jac = base_jacobian(k, l, kind, a, b)
        det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
        scale = abs(jac[0][0] * jac[1][1]) + abs(jac[0][1] * jac[1][0])
        if abs(s["det"] - det) > 1e-5 * scale + 1e-12:
            problems.append(f"det {s['det']!r} at {(a, b)}, expected {det!r}")
        sig = np.linalg.svd(np.array(jac), compute_uv=False)
        ratio = sig[1] / sig[0] if sig[0] > 0 else 0.0
        if s["rank2_ok"] != bool(ratio > 1e-6):
            problems.append(f"rank2_ok {s['rank2_ok']} at {(a, b)}, ratio {ratio:.3g}")
        if len(problems) > 5:
            break
    if data["origin_rank0_ok"] is not True:
        problems.append("the base map of degree l >= 2 must have rank 0 at the origin")
    if kind == "zero":
        if data["unique_singular_point"] is not False:
            problems.append("y vanishes on L_{k,l} for the dual numbers, so rank 2 must fail")
    elif data["unique_singular_point"] is not True or not data["bend_angle"] <= 1e-8:
        problems.append(f"{kind}: unique_singular_point {data['unique_singular_point']}, "
                        f"bend_angle {data['bend_angle']!r}")
    return problems


def check_export(op, out):
    problems = []
    if out["code"] != 0:
        return [f"exit code {out['code']}"]
    data = _json(out, problems)
    if data is None or data.get("count") != op["count"]:
        return problems + ["stdout does not echo the count"]
    rows = list(csv.reader(io.StringIO(out["file"])))
    header, rows = rows[0], rows[1:]
    k = op["k"]
    names = {f"u_{{{p},{d - p}}}" for d in range(k + 1) for p in range(d + 1)}
    if header[:4] != ["a", "b", "x", "y"] or set(header[4:]) != names or len(header) != 4 + len(names):
        return problems + [f"bad header {header}"]
    if len(rows) != op["count"]:
        problems.append(f"{len(rows)} rows, expected {op['count']}")
    for row in rows:
        values = dict(zip(header, (float(v) for v in row)))
        ref = family_reference(k, op["l"], op["kind"], values["a"], values["b"])
        for name, (want, scale) in ref.items():
            if not _close(values[name], want, scale):
                problems.append(f"{name} at a={values['a']!r}, b={values['b']!r}: "
                                f"{values[name]!r}, expected {want!r}")
        if len(problems) > 5:
            break
    return problems


def check_prolong(op, out):
    problems = []
    chain = out["value"]
    re, im = normal_form_coeffs(op["k"], op["kind"])
    first = chain[0]
    if not (np.allclose(first["q1"], re, rtol=1e-12, atol=0)
            and np.allclose(first["q2"], im, rtol=1e-12, atol=0)):
        problems.append("normal form differs from Re/Im (x + zeta y)^k")
    if len(chain) != op["steps"] + 1:
        problems.append(f"chain of {len(chain)} bends, expected {op['steps'] + 1}")
    for prev, cur in zip(chain, chain[1:]):
        if cur["degree"] != prev["degree"] + 1 or cur["kind"] != op["kind"]:
            problems.append(f"degree {cur['degree']} kind {cur['kind']!r} after "
                            f"degree {prev['degree']}, expected kind {op['kind']!r}")
        if not _independent(cur["q1"], cur["q2"]):
            problems.append(f"degree {cur['degree']}: dependent basis")
            continue
        residual = _in_span([_dx(cur["q1"]), _dy(cur["q1"]), _dx(cur["q2"]), _dy(cur["q2"])],
                            [prev["q1"], prev["q2"]])
        if residual > 1e-8:
            problems.append(f"degree {cur['degree']}: derivatives leave the previous "
                            f"span by {residual:.3g}")
    return problems


def check_selfadjoint(op, out):
    problems = []
    if out["code"] != 0:
        return [f"exit code {out['code']}"]
    data = _json(out, problems)
    if data is None:
        return problems
    if data["type"] != op["kind"]:
        return [f"type {data['type']!r}, expected {op['kind']!r}"]
    m = np.array(op["matrix"]).reshape(4, 4)
    scale = 1.0 + float(np.abs(m).max())
    eig = op["eig"]
    tol = 1e-8 * scale * scale
    got = data["eigenvalues"]
    if op["kind"] == "elliptic":
        lam, mu = eig
        want = [[lam, mu], [lam, -mu]]
        b = np.array(data["complex_structure"])
        if np.abs(b @ b + np.eye(4)).max() > tol:
            problems.append("complex structure does not square to -I")
    elif op["kind"] == "hyperbolic":
        want = [[eig[0], 0.0], [eig[1], 0.0]]
        for plane, lam in zip(data["eigenplanes"], eig):
            v = np.array(plane)
            if v.shape != (4, 2) or np.abs(m @ v - lam * v).max() > tol:
                problems.append(f"eigenplane for {lam} is not invariant")
    else:
        want = [[e, 0.0] for e in (eig * 2 if op["kind"] == "parabolic" else eig)]
        if op["kind"] == "parabolic":
            w = np.array(data["lagrangian_plane"])
            gram = np.zeros((4, 4))
            gram[:2, 2:], gram[2:, :2] = np.eye(2), -np.eye(2)
            if w.shape != (4, 2) or np.abs(m @ w - eig[0] * w).max() > tol \
                    or abs(w[:, 0] @ gram @ w[:, 1]) > tol:
                problems.append("kernel plane is not a Lagrangian eigenplane")
    if len(got) != len(want) or any(abs(g[0] - w[0]) > tol or abs(g[1] - w[1]) > tol
                                    for g, w in zip(got, want)):
        problems.append(f"eigenvalues {got}, expected {want}")
    return problems


CHECKS = {
    "classify": check_classify,
    "verify": check_verify,
    "contact": check_contact,
    "bracket": check_bracket,
    "eval_jet": check_eval_jet,
    "bend": check_bend,
    "report": check_report,
    "export": check_export,
    "prolong": check_prolong,
    "selfadjoint": check_selfadjoint,
}


def check(op, out):
    """Problems with one operation's output; [] when it is correct."""
    try:
        return CHECKS[op["type"]](op, out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
