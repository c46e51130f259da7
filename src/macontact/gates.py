"""Every threshold decision of the library, and the SVD helpers that cut ranks.

The limit of a gate is its threshold (the row's, unless a parameter or flag
sets it) times each scale the site passes, in turn, floored at 1 under the
"max1" rule.  Each site asks ``passes`` for its passing condition, ``value <=
limit`` or ``value > limit``; both are false for a NaN, so a NaN never passes.
"""

from collections import namedtuple

import numpy as np

# direction "at most" or "above"; scale rule "none", "times" or "max1"
Gate = namedtuple("Gate", "direction threshold scale")
GATES = {  # README "Gates" lists each row and what it decides
    "gram_nondegenerate": Gate("above", 1e-12, "none"),
    "self_adjoint": Gate("at most", 1e-10, "none"),
    "dim4_norm": Gate("at most", 1e150, "none"),
    "dim4_self_adjoint": Gate("at most", 1e-9, "max1"),
    "dim4_scalar": Gate("at most", 1e-9, "max1"),
    "dim4_min_poly": Gate("at most", 1e-9, "max1"),
    "dim4_band": Gate("above", 1e-9, "max1"),
    "lagrangian": Gate("at most", 1e-10, "none"),
    "complement": Gate("above", 1e-12, "max1"),
    "pairing_nonzero": Gate("above", 1e-12, "none"),
    "sign_pivot": Gate("above", 1e-12, "none"),
    "rank": Gate("above", 1e-10, "times"),
    "span_rank": Gate("above", float(np.finfo(float).eps), "times"),
    "probe_rank2": Gate("above", 1e-8, "none"),
    "witness_span": Gate("at most", 1e-10, "times"),
    "bend_nonscalar": Gate("above", 1e-9, "max1"),
    "bend_kind": Gate("above", 1e-9, "max1"),
    "family_consistency": Gate("at most", 1e-9, "none"),
    "base_rank2": Gate("above", 1e-6, "none"),
    "bend_angle": Gate("at most", 1e-8, "none"),
    "contact_field": Gate("at most", 1e-9, "none"),
    "type_band": Gate("at most", 1e-9, "none"),
    "poly_homogeneous": Gate("at most", 1e-12, "times"),
    "verify_residual": Gate("at most", 1e-9, "none"),
    "verify_defect": Gate("at most", 1e-8, "none"),
    "error_fraction": Gate("at most", 0.25, "none"),
}


def passes(name: str, value, *scales, threshold=None):
    """Whether ``value`` (a float or a numpy column) passes gate ``name``."""
    direction, limit, rule = GATES[name]
    if threshold is not None:
        limit = threshold
    for scale in scales:
        limit = limit * (max(1.0, scale) if rule == "max1" else scale)
    return value <= limit if direction == "at most" else value > limit


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """Deterministic orientation: first nonzero entry of each column >= 0."""
    out = basis.copy()
    for col in range(out.shape[1]):
        v = out[:, col]
        nz = np.nonzero(passes("sign_pivot", np.abs(v)))[0]
        if nz.size and v[nz[0]] < 0:
            out[:, col] = -v
    return out


def _orth(m: np.ndarray, name: str = "rank", *scales) -> np.ndarray:
    """Orthonormal basis of the column span, cut by gate ``name`` at
    ``scales`` times the largest singular value."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :int(np.sum(passes(name, s, *scales, s[0])))]


def _nullspace(m: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis, rank cut by the ``rank`` gate times
    the largest singular value."""
    _, s, vh = np.linalg.svd(m)
    return _fix_signs(vh[int(np.sum(passes("rank", s, s[0]))):].T)


def _sigma_ratios(stack: np.ndarray) -> np.ndarray:
    """Smallest over largest singular value of each matrix of ``stack``
    (0 for a zero matrix), from one batched SVD."""
    s = np.linalg.svd(stack, compute_uv=False)
    with np.errstate(all="ignore"):
        return np.where(s[..., 0] > 0, s[..., -1] / s[..., 0], 0.0)


def _unit_columns(m: np.ndarray) -> tuple:
    """The columns of ``m`` divided by their Euclidean norms (hypot cannot
    overflow; a zero column stays zero), and whether they are independent
    whatever the scale of each (the ``rank`` gate on the smallest)."""
    norms = np.hypot.reduce(m, axis=0)
    units = m / np.where(norms > 0.0, norms, 1.0)
    s = np.linalg.svd(units, compute_uv=False)
    return units, bool(passes("rank", s[-1], s[0]))
