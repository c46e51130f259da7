"""The numpy SVD helpers against scipy, and an import without scipy."""

import subprocess
import sys

import numpy as np
import pytest

from macontact.bends import span_angle
from macontact.gates import _fix_signs, _nullspace


def test_import_does_not_load_scipy():
    code = "import sys, macontact; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _pair_at_angle(rng, n, dim, angle):
    """Two dim-dimensional subspaces of R^n whose largest principal angle is ``angle``."""
    q, _ = np.linalg.qr(rng.normal(size=(n, 2 * dim)))
    a = q[:, :dim]
    angles = np.append(rng.uniform(0.0, angle, size=dim - 1), angle)
    b = a * np.cos(angles) + q[:, dim:] * np.sin(angles)
    # arbitrary (non-orthonormal) spanning sets of the same spans
    return a @ rng.normal(size=(dim, dim)), b @ rng.normal(size=(dim, dim))


def test_nullspace_spans_scipy_null_space():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(11)
    for _ in range(200):
        rows, cols = rng.integers(2, 10, size=2)
        rank = rng.integers(1, min(rows, cols) + 1)
        m = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        ours = _nullspace(m)
        ref = _fix_signs(linalg.null_space(m, rcond=1e-10))
        assert ours.shape == ref.shape
        assert np.allclose(ours.T @ ours, np.eye(ours.shape[1]), atol=1e-12)
        assert np.abs(ours - ref @ (ref.T @ ours)).max(initial=0.0) <= 1e-12


def test_span_angle_matches_scipy_subspace_angles():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(12)
    for angle in np.concatenate([[1e-10], np.logspace(-14, np.log10(np.pi / 2), 60)]):
        n = int(rng.integers(3, 10))
        a, b = _pair_at_angle(rng, n, int(rng.integers(1, n // 2 + 1)), angle)
        ours = span_angle(a, b)
        assert abs(ours - float(np.max(linalg.subspace_angles(a, b)))) <= 1e-12
        # spans of different dimensions, in either order
        for x, y in ((a[:, :1], b), (a, b[:, :1])):
            assert abs(span_angle(x, y)
                       - float(np.max(linalg.subspace_angles(x, y)))) <= 1e-12
        # the sine form resolves the angle itself, where an arccos form gives 0 or ~1e-8
        assert abs(ours - angle) <= 1e-12 + 1e-8 * angle
