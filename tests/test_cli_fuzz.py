"""Hostile argv for every subcommand, run through ``cli.main`` in process.

Every argv must end in a documented exit code (argparse's own exits
included), raise nothing else, and print only JSON (or CSV) whose numbers
are finite.  Sizes are capped so that one example takes about a second at
most: ``--samples``, grid counts and point counts stay small (their caps
are far above what a test can afford) or go above the cap, which exits 2.
"""

import contextlib
import io
import json
import math
import os

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from macontact.cli import MAX_REPORT_SAMPLES, MAX_VERIFY_SAMPLES, main


def mostly(valid, hostile):
    """``valid`` five times in six, else one of the ``hostile`` texts."""
    # one_of would merge the repeated branches, so pick a branch first
    return st.sampled_from([valid] * 5 + [st.sampled_from(hostile)]).flatmap(lambda s: s)


NOT_A_NUMBER = ["nan", "-nan", "inf", "-inf", "", "abc", "1,2", "1e999"]
finite = st.one_of(st.sampled_from(["0", "-0", "-1", "1e-320", "1e200", "-1e308"]),
                   st.floats(-3, 3).map(repr),
                   st.floats(allow_nan=False, allow_infinity=False).map(repr))
reals = mostly(finite, NOT_A_NUMBER)
tolerances = mostly(st.one_of(st.sampled_from(["0", "1e-9", "1e300"]),
                              st.floats(0, 10).map(repr)), NOT_A_NUMBER + ["-1"])
positives = mostly(st.one_of(st.sampled_from(["1e-300", "1e8", "1e200"]),
                             st.floats(1e-3, 10).map(repr)),
                   NOT_A_NUMBER + ["0", "-1", "1e308"])
small_ints = mostly(st.integers(1, 12).map(str), ["0", "-1", "", "two", "1.5", "1e3"])


def samples(cap):
    """A small --samples value, or one above its cap."""
    return mostly(small_ints, [str(cap + 1), "9" * 30])


seeds = mostly(st.integers(0, 2 ** 32).map(str), ["-1", "", "x", str(10 ** 30)])
exponents = mostly(st.sampled_from(["2", "3", "0", "-1", "-3", "1000", "-1000"]),
                   ["1001", "-1001", "100000000", "9" * 40, "2.5", ""])
CONSTANTS = ["0", "1", "2.5", "1e308", "1e-320", "709.782712893384", "710", "1e300*1e300"]


def expressions(names, exponents=exponents):
    """Expression text over ``names``: functions at their domain edges,
    zero divisors, big exponents, deep nesting and long sums."""
    leaves = st.sampled_from(list(names) + CONSTANTS)

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children)
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(children, exponents).map(lambda t: f"{t[0]}^{t[1]}"),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "ln", "sqrt"]), children)
            .map(lambda t: f"{t[0]}({t[1]})"),
            children.map(lambda c: f"-{c}"),
        )
    return mostly(st.recursive(leaves, extend, max_leaves=8), [
        "", " ", "(" * 300 + names[0] + ")" * 300, "+".join([names[0]] * 300),
        f"{names[0]} +", "foo(1)", "sin", f"{names[0]}^", "1/0", "ln(0)", "sqrt(-1)",
    ])


CHART = ("x1", "x2", "u", "p1", "p2")
coefficients = {f"--{n}": expressions(CHART) for n in "NABCD"}


@st.composite
def grids(draw):
    axes = draw(st.lists(st.tuples(mostly(st.sampled_from(CHART), ["q", ""]), reals, reals,
                                   mostly(st.sampled_from(["0", "1", "3", "40"]),
                                          ["-2", "x", "100000000"])),
                         min_size=1, max_size=3))
    text = ",".join(f"{n}={lo}:{hi}:{c}" for n, lo, hi, c in axes)
    return draw(mostly(st.sampled_from([text, "default"]), ["x1=0:1", "x1", ""]))


EXPORT, OUT = "@EXPORT", "@OUT"  # placeholders for the paths of one test run
# and for two paths that cannot be written: the run's folder and a file in a missing one
FOLDER, MISSING = "@FOLDER", "@MISSING"
exports, outs = (mostly(st.just(path), [FOLDER, MISSING]) for path in (EXPORT, OUT))


def _commands():
    """command -> (required flags, optional flags), each flag -> value strategy."""
    forms = st.sampled_from(["x^2 - y^2", "x*y", "x^2 + y^2", "x^2", "x^3 - 3*x*y^2",
                             "3*x^2*y - y^3", "x^3", "x^2*y", "1e300*x*y", "x^4 - 6*x^2*y^2 + y^4"])
    polys = st.one_of(forms, expressions(("x", "y"), mostly(
        st.sampled_from(["2", "3", "0", "-1"]), ["32", "33", "100", "1001"])))
    rmanifold = {"--k": mostly(st.sampled_from(["2", "3", "5", "8"]),
                               ["-1", "0", "1", "39", "40", "x"]),
                 "--l": mostly(st.sampled_from(["2", "3", "5"]), ["-1", "0", "1", "6", "x"]),
                 "--kind": mostly(st.sampled_from(["minus", "zero", "plus"]), ["other"])}
    return {
        "classify": ({}, {**coefficients, "--grid": grids(),
                          "--fixed": st.tuples(st.sampled_from(CHART), reals)
                          .map(lambda t: f"{t[0]}={t[1]}"),
                          "--band": tolerances, "--max-error-fraction": tolerances,
                          "--format": mostly(st.sampled_from(["json", "csv"]), ["xml"])}),
        "verify": ({"--f": expressions(("x1", "x2"))},
                   {**coefficients, "--samples": samples(MAX_VERIFY_SAMPLES),
                    "--range": positives,
                    "--seed": seeds, "--residual-tol": tolerances,
                    "--defect-tol": tolerances}),
        "verify-tol": ({"--f": expressions(("x1", "x2")), "--tol": tolerances},
                       {**coefficients, "--samples": samples(MAX_VERIFY_SAMPLES)}),
        # a power of a constant base multiplies order-32 jets, 0.3 ms each
        "bend": ({"--k": mostly(st.sampled_from(["1", "2", "3", "4", "5"]),
                                ["0", "32", "33", "-1", "x", "100000"]),
                  "--q1": polys, "--q2": polys}, {}),
        "contact": ({"--nu": expressions(CHART)},
                    {"--point": mostly(st.lists(reals, min_size=5, max_size=5)
                                       .map(",".join), ["", "1,2,3,4", "1,2,3,4,5,6"])}),
        "rmanifold": (rmanifold, {"--radius": positives,
                                  "--samples": samples(MAX_REPORT_SAMPLES)}),
        "rmanifold-export": ({**rmanifold, "--export": exports},
                             {"--count": mostly(small_ints, ["100001"]),
                              "--param-range": positives, "--seed": seeds}),
        "selfadjoint": ({"--matrix": mostly(st.lists(finite, min_size=16, max_size=16)
                                            .map(",".join),
                                            ["1,2,3", "", ",".join(["1"] * 17),
                                             ",".join(["nan"] + ["0"] * 15),
                                             ",".join(["1e300"] * 16)])},
                        {"--space": mostly(st.sampled_from(["standard", "darboux"]),
                                           ["other"]),
                         "--tol": tolerances}),
    }


@st.composite
def argvs(draw):
    """An argv of one subcommand: its required flags (rarely one missing),
    some optional ones and, rarely, a flag of another subcommand or mode."""
    commands = _commands()
    name = draw(st.sampled_from(sorted(commands)))
    required, optional = commands[name]
    optional = {**optional, "--out": outs}  # every subcommand takes --out
    flags = sorted(required)
    if flags and draw(st.integers(0, 9)) == 0:
        flags.remove(draw(st.sampled_from(flags)))
    flags += draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(["--tol", "--residual-tol", "--radius", "--count",
                                           "--seed", "--export", "--format"])))
    options = {**{f: tolerances for f in ("--tol", "--residual-tol")},
               "--radius": positives, "--count": small_ints, "--seed": seeds,
               "--export": exports,
               "--format": st.just("csv"), **optional, **required}
    # flag=value, so that argparse reads a value such as "-x1" as a value
    return [name.partition("-")[0]] + [f"{f}={draw(options[f])}" for f in flags]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _finite_float(text: str) -> float:
    value = float(text)  # a literal such as 1e999 reads as inf
    if not math.isfinite(value):
        raise ValueError(f"non-finite JSON number {text}")
    return value


def _finite_csv(text: str):
    for line in text.splitlines()[1:]:
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:
                continue
            assert math.isfinite(value), line


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """The --export and --out paths, one set for all examples."""
    folder = tmp_path_factory.mktemp("fuzz")
    return {EXPORT: str(folder / "cloud.csv"), OUT: str(folder / "out.json"),
            FOLDER: str(folder), MISSING: str(folder / "missing" / "out.json")}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argvs())
def test_hostile_argv_ends_in_a_documented_exit_code(paths, argv):
    for placeholder, path in paths.items():
        argv = [a.replace(placeholder, path) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the argv
            code = exc.code
    # anything else escaping main is a traceback, and fails the test
    assert code in (0, 1, 2, 3), (argv, code, stderr.getvalue())
    event(f"{argv[0]} exits {code}")
    out = stdout.getvalue()
    # a flag given twice takes its last value, as argparse does
    given = dict(a.partition("=")[::2] for a in argv[1:])
    if any(given.get(flag) == paths[p] for flag in ("--out", "--export")
           for p in (FOLDER, MISSING)):
        # an unwritable path is bad input, unless a numeric failure comes first
        event(f"unwritable path, exits {code}")
        assert code in (2, 3), (argv, code, stderr.getvalue())
    if code in (0, 1):
        if given.get("--out") == paths[OUT]:
            assert out == "", argv
            with open(paths[OUT]) as handle:
                out = handle.read()
            os.remove(paths[OUT])
        assert out, argv
        if given.get("--format") == "csv":
            _finite_csv(out)
        else:
            payload = json.loads(out, parse_constant=_reject_constant,
                                 parse_float=_finite_float)
            assert isinstance(payload, dict)
        if given.get("--export") == paths[EXPORT] and code == 0 and argv[0] == "rmanifold":
            with open(paths[EXPORT]) as handle:
                _finite_csv(handle.read())
    else:
        assert out == "", argv
        assert stderr.getvalue(), argv
