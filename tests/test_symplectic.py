import numpy as np
import pytest
from scipy.linalg import expm

from macontact.monge_ampere import MAEquation, darboux_space, structure_operator
from macontact.contact import DarbouxPoint
from macontact.symplectic import (Operator, OperatorType, classify_dim4,
                                  cyclic_subspace, direct_sum_operator,
                                  is_lagrangian, is_self_adjoint,
                                  jordan_product, nilpotent_from_lagrangian,
                                  standard_space)

ORIGIN = DarbouxPoint(0, 0, 0, 0, 0)

LAPLACE = np.array([[0, -2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]],
                   dtype=float)
WAVE = np.array([[0, -2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, -2], [0, 0, -2, 0]],
                dtype=float)
HOMOGENEOUS = np.array([[0, 0, 0, -2], [0, 0, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                       dtype=float)


def random_symplectic(sp, rng, scale=0.4):
    sym = rng.normal(size=(sp.dim, sp.dim)) * scale
    sym = (sym + sym.T) / 2
    return expm(sp.gram @ sym)


def conjugate(sp, matrix, t):
    return t @ matrix @ np.linalg.inv(t)


# --- spaces --------------------------------------------------------------------

def test_standard_space_n1():
    sp = standard_space(1)
    assert np.array_equal(sp.gram, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_standard_space_n2_blocks():
    sp = standard_space(2)
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = 1
    expected[2, 0] = expected[3, 1] = -1
    assert np.array_equal(sp.gram, expected)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_standard_space_identities(n):
    j = standard_space(n).gram
    assert np.array_equal(j.T + j, np.zeros_like(j))
    assert np.array_equal(j @ j, -np.eye(2 * n))


def test_degenerate_gram_rejected():
    from macontact.symplectic import SymplecticSpace
    with pytest.raises(ValueError):
        SymplecticSpace(np.zeros((2, 2)))


# --- self-adjointness ------------------------------------------------------------

def test_scalar_operators_are_self_adjoint():
    sp = standard_space(2)
    for c in (-3.0, 0.0, 2.5):
        assert is_self_adjoint(sp, Operator(c * np.eye(4), sp))


@pytest.mark.parametrize("where, bad", [((0, 0), np.nan), ((1, 2), np.inf), ((3, 0), -np.inf)])
def test_is_self_adjoint_refuses_a_non_finite_entry(where, bad):
    # a NaN operator read "not self-adjoint" (a decision made from a NaN), and
    # an infinite entry also warned "invalid value encountered in matmul"
    sp = standard_space(2)
    m = np.eye(4)
    m[where] = bad
    text = rf"operator entry \({where[0]}, {where[1]}\) is not finite: {bad!r}"
    with pytest.raises(ValueError, match=text):
        is_self_adjoint(sp, Operator(m, sp))
    with pytest.raises(ValueError, match=text):  # the same text as classify_dim4
        classify_dim4(sp, Operator(m, sp))


def test_gram_matrix_itself_is_not_self_adjoint():
    sp = standard_space(2)
    assert not is_self_adjoint(sp, Operator(sp.gram, sp))
    # A^T J - J A = -2 J^2 = 2 I for the standard space
    dev = sp.gram.T @ sp.gram - sp.gram @ sp.gram
    assert np.array_equal(dev, 2 * np.eye(4))


def test_laplace_operator_self_adjoint_for_curvature_gram():
    eq = MAEquation.from_strings(A="1", C="1")
    op = structure_operator(eq, ORIGIN)
    assert is_self_adjoint(darboux_space(), op)


# --- Jordan product ---------------------------------------------------------------

def test_jordan_unit_and_square():
    sp = standard_space(2)
    rng = np.random.default_rng(0)
    a = Operator(direct_sum_operator(rng.normal(size=(2, 2))).matrix, sp)
    ident = Operator(np.eye(4), sp)
    assert np.allclose(jordan_product(a, ident).matrix, a.matrix)
    assert np.allclose(jordan_product(a, a).matrix, a.matrix @ a.matrix)


def test_jordan_closure_on_self_adjoint_pairs():
    rng = np.random.default_rng(1)
    sp = standard_space(2)
    for _ in range(100):
        a = direct_sum_operator(rng.normal(size=(2, 2)))
        b = direct_sum_operator(rng.normal(size=(2, 2)))
        prod = jordan_product(a, b)
        assert is_self_adjoint(sp, prod, tol=1e-12 * max(
            1.0, float(np.abs(prod.matrix).max())))


# --- cyclic subspaces --------------------------------------------------------------

def test_cyclic_subspace_identity_operator():
    sp = standard_space(2)
    basis = cyclic_subspace(sp, Operator(np.eye(4), sp), [1.0, 2.0, 0.0, -1.0])
    assert basis.shape[1] == 1


def test_cyclic_subspace_parabolic_is_two_dimensional():
    sp = darboux_space()
    op = Operator(HOMOGENEOUS, sp)
    basis = cyclic_subspace(sp, op, [0.3, -0.2, 0.9, 1.1])
    assert basis.shape[1] == 2


def test_cyclic_subspace_is_isotropic():
    rng = np.random.default_rng(2)
    sp = standard_space(2)
    for _ in range(50):
        a = direct_sum_operator(rng.normal(size=(2, 2)))
        v = rng.normal(size=4)
        basis = cyclic_subspace(sp, a, v)
        for i in range(basis.shape[1]):
            for j in range(basis.shape[1]):
                assert abs(sp.pairing(basis[:, i], basis[:, j])) <= 1e-10


def test_cyclic_subspace_rejects_zero_vector():
    sp = standard_space(2)
    with pytest.raises(ValueError):
        cyclic_subspace(sp, Operator(np.eye(4), sp), np.zeros(4))


# --- classification ----------------------------------------------------------------

def test_classify_laplace_elliptic():
    sp = darboux_space()
    assert np.allclose(LAPLACE @ LAPLACE, -4 * np.eye(4))
    result = classify_dim4(sp, Operator(LAPLACE, sp))
    assert result.type is OperatorType.ELLIPTIC
    b = result.complex_structure
    assert np.abs(b @ b + np.eye(4)).max() <= 1e-10


def test_classify_wave_hyperbolic():
    sp = darboux_space()
    assert np.allclose(WAVE @ WAVE, 4 * np.eye(4))
    result = classify_dim4(sp, Operator(WAVE, sp))
    assert result.type is OperatorType.HYPERBOLIC
    v1, v2 = result.eigenplanes
    assert v1.shape[1] == 2 and v2.shape[1] == 2


def test_classify_homogeneous_parabolic():
    sp = darboux_space()
    assert np.array_equal(HOMOGENEOUS @ HOMOGENEOUS, np.zeros((4, 4)))
    result = classify_dim4(sp, Operator(HOMOGENEOUS, sp))
    assert result.type is OperatorType.PARABOLIC
    w = result.lagrangian_plane
    # kernel is the span of the first two frame vectors
    assert np.abs(w[2:, :]).max() <= 1e-12
    assert is_lagrangian(sp, (w[:, 0], w[:, 1]))


def test_classify_scalar():
    sp = standard_space(2)
    result = classify_dim4(sp, Operator(2.5 * np.eye(4), sp))
    assert result.type is OperatorType.SCALAR
    assert result.eigenvalues == (2.5,)


def test_classify_rejects_non_self_adjoint():
    sp = standard_space(2)
    with pytest.raises(ValueError):
        classify_dim4(sp, Operator(sp.gram, sp))


def test_corollary_three_classes_and_reparametrization_invariance():
    # s I + t B for B^2 in {-I, 0, +I} classifies by the sign of B^2, and the
    # type is unchanged under (s, t) -> (s + c, t * d)
    sp = standard_space(2)
    models = {
        OperatorType.ELLIPTIC: direct_sum_operator([[0, 1], [-1, 0]]).matrix,
        OperatorType.PARABOLIC: direct_sum_operator([[0, 1], [0, 0]]).matrix,
        OperatorType.HYPERBOLIC: direct_sum_operator([[0, 1], [1, 0]]).matrix,
    }
    rng = np.random.default_rng(3)
    for expected, b in models.items():
        for _ in range(10):
            s, t = rng.uniform(-2, 2), rng.uniform(0.1, 2)
            c, d = rng.uniform(-2, 2), rng.uniform(0.2, 3)
            first = classify_dim4(sp, Operator(s * np.eye(4) + t * b, sp))
            second = classify_dim4(
                sp, Operator((s + c) * np.eye(4) + t * d * b, sp))
            assert first.type is expected
            assert second.type is expected


def test_hyperbolic_eigenplanes_orthogonal_not_lagrangian():
    rng = np.random.default_rng(4)
    sp = standard_space(2)
    for _ in range(25):
        l1, l2 = sorted(rng.uniform(-2, 2, 2))
        if l2 - l1 < 0.5:
            continue
        f = np.diag([l1, l2])
        t = random_symplectic(sp, rng)
        m = conjugate(sp, direct_sum_operator(f).matrix, t)
        result = classify_dim4(sp, Operator(m, sp))
        assert result.type is OperatorType.HYPERBOLIC
        v1, v2 = result.eigenplanes
        cross = v1.T @ sp.gram @ v2
        assert np.abs(cross).max() <= 1e-9
        # each eigenplane is non-Lagrangian: its basis pairs nontrivially
        assert abs(sp.pairing(v1[:, 0], v1[:, 1])) > 1e-6
        assert abs(sp.pairing(v2[:, 0], v2[:, 1])) > 1e-6


def test_parabolic_kernel_equals_image_and_cyclic_planes():
    rng = np.random.default_rng(5)
    sp = standard_space(2)
    lam = 0.7
    f = np.array([[lam, 1.0], [0.0, lam]])
    t = random_symplectic(sp, rng)
    m = conjugate(sp, direct_sum_operator(f).matrix, t)
    result = classify_dim4(sp, Operator(m, sp))
    assert result.type is OperatorType.PARABOLIC
    w = result.lagrangian_plane
    assert w.shape[1] == 2
    assert is_lagrangian(sp, (w[:, 0], w[:, 1]))
    b = m - result.eigenvalues[0] * np.eye(4)
    image = b @ rng.normal(size=(4, 8))
    # Im(A - lambda I) is contained in W = Ker(A - lambda I)
    coeffs, *_ = np.linalg.lstsq(w, image, rcond=None)
    assert np.abs(w @ coeffs - image).max() <= 1e-9

    # Lagrangian planes meeting W in a line are A-cyclic planes
    for _ in range(50):
        wvec = w @ rng.normal(size=2)
        u = rng.normal(size=4)
        # force <u, wvec> = 0 by correcting along a direction pairing with wvec
        probe = np.eye(4)[int(np.argmax(np.abs(sp.gram @ wvec)))]
        u = u - float(u @ sp.gram @ wvec) / float(probe @ sp.gram @ wvec) * probe
        plane = np.column_stack([wvec, u])
        if np.linalg.svd(plane, compute_uv=False)[1] < 1e-6:
            continue
        assert abs(sp.pairing(wvec, u)) <= 1e-9
        for col in (wvec, u):
            img = m @ col
            coeffs, *_ = np.linalg.lstsq(plane, img, rcond=None)
            assert np.abs(plane @ coeffs - img).max() <= 1e-9


# --- Lagrangian tests ---------------------------------------------------------------

def test_is_lagrangian_examples():
    sp = standard_space(2)
    e = np.eye(4)
    assert is_lagrangian(sp, (e[:, 0], e[:, 1]))
    assert not is_lagrangian(sp, (e[:, 0], e[:, 2]))


@pytest.mark.parametrize("scale", [1e-150, 1e-6, 1.0, 1e6, 1e150])
def test_is_lagrangian_does_not_depend_on_the_scale_of_either_vector(scale):
    sp = standard_space(2)
    e = np.eye(4)
    assert is_lagrangian(sp, (scale * e[:, 0], e[:, 1]))
    assert is_lagrangian(sp, (scale * e[:, 0], scale * e[:, 1]))
    # (e1, e3) pairs to 1: not Lagrangian at any scale
    assert not is_lagrangian(sp, (scale * e[:, 0], scale * e[:, 2]))
    assert not is_lagrangian(sp, (scale * e[:, 0], e[:, 2]))


def test_is_lagrangian_rejects_dependent_vectors():
    sp = standard_space(2)
    v = np.array([1.0, 2.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        is_lagrangian(sp, (v, 2 * v))


@pytest.mark.parametrize("vector, entry, bad", [(0, 0, np.nan), (1, 2, np.inf),
                                               (1, 3, -np.inf)])
def test_is_lagrangian_refuses_a_non_finite_entry(vector, entry, bad):
    # the SVD of the unit columns raised LinAlgError "SVD did not converge"
    sp = standard_space(2)
    plane = [np.eye(4)[:, 0], np.eye(4)[:, 1]]
    plane[vector][entry] = bad
    with pytest.raises(ValueError, match=rf"plane vector {vector} entry {entry} "
                                         rf"is not finite: {bad!r}"):
        is_lagrangian(sp, plane)


# --- nilpotent construction -----------------------------------------------------------

def test_nilpotent_from_lagrangian_construction():
    sp = standard_space(2)
    e = np.eye(4)
    w = (e[:, 0], e[:, 1])
    # U must be a NON-Lagrangian complement: span{e3, e1 + e4} works
    u = (e[:, 2], e[:, 0] + e[:, 3])
    b = nilpotent_from_lagrangian(sp, w, u)
    assert np.abs(b.matrix).max() > 0
    assert np.array_equal(b.matrix @ b.matrix, np.zeros((4, 4)))
    assert is_self_adjoint(sp, b, tol=1e-12)
    # kernel contains W
    assert np.abs(b.matrix @ np.column_stack(w)).max() <= 1e-12


def test_nilpotent_plus_identity_classifies_parabolic():
    sp = standard_space(2)
    e = np.eye(4)
    b = nilpotent_from_lagrangian(sp, (e[:, 0], e[:, 1]),
                                  (e[:, 2], e[:, 0] + e[:, 3]))
    result = classify_dim4(sp, Operator(b.matrix + np.eye(4), sp))
    assert result.type is OperatorType.PARABOLIC
    assert result.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)
    w = result.lagrangian_plane
    coeffs, *_ = np.linalg.lstsq(np.column_stack((e[:, 0], e[:, 1])), w,
                                 rcond=None)
    assert np.abs(np.column_stack((e[:, 0], e[:, 1])) @ coeffs - w).max() <= 1e-9


def test_nilpotent_from_lagrangian_rejects_lagrangian_complement():
    sp = standard_space(2)
    e = np.eye(4)
    # span{e3, e4} is itself Lagrangian for the standard pairing
    with pytest.raises(ValueError):
        nilpotent_from_lagrangian(sp, (e[:, 0], e[:, 1]), (e[:, 2], e[:, 3]))


def test_nilpotent_from_lagrangian_rejects_bad_w():
    sp = standard_space(2)
    e = np.eye(4)
    with pytest.raises(ValueError):
        nilpotent_from_lagrangian(sp, (e[:, 0], e[:, 2]),
                                  (e[:, 1], e[:, 0] + e[:, 3]))


# --- direct sum construction ------------------------------------------------------------

def test_direct_sum_identity():
    op = direct_sum_operator(np.eye(2))
    assert np.array_equal(op.matrix, np.eye(4))
    assert is_self_adjoint(op.space, op)


def test_direct_sum_nilpotent_block():
    op = direct_sum_operator([[0, 1], [0, 0]])
    assert is_self_adjoint(op.space, op, tol=1e-14)


def test_direct_sum_always_self_adjoint_and_kernel_image_pairing():
    rng = np.random.default_rng(6)
    sp = standard_space(2)
    for _ in range(100):
        f = rng.normal(size=(2, 2))
        op = direct_sum_operator(f)
        assert is_self_adjoint(sp, op, tol=1e-12 * max(
            1.0, float(np.abs(op.matrix).max())))
    for _ in range(100):
        f = rng.normal(size=(2, 2))
        f[:, 1] = rng.normal() * f[:, 0]  # force singularity
        m = direct_sum_operator(f).matrix
        u, s, vt = np.linalg.svd(m)
        rank = int(np.sum(s > 1e-10 * s[0]))
        kernel = vt[rank:].T
        image = u[:, :rank]
        cross = kernel.T @ sp.gram @ image
        assert np.abs(cross).max() <= 1e-10


def test_classify_rejects_non_finite_entries():
    sp = standard_space(2)
    m = np.eye(4)
    m[2, 1] = -np.inf
    with pytest.raises(ValueError, match=r"entry \(2, 1\) is not finite: -inf"):
        classify_dim4(sp, Operator(m, sp))


@pytest.mark.parametrize("scale", [1e300, 1e160])
def test_classify_rejects_operators_whose_square_overflows(scale):
    # scalar-looking only because overflow made every tolerance infinite
    sp = standard_space(2)
    m = scale * np.diag([1.0, 2.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="overflow"):
        classify_dim4(sp, Operator(m, sp))


@pytest.mark.parametrize("exponent", range(150))
def test_classify_keeps_the_minimal_polynomial_at_every_scale(exponent):
    # a least-squares fit of A^2 in span{I, A} dropped the identity column
    # from ||A||_F of about 1e15; the trace formulas are exact at any scale
    sp = standard_space(2)
    scale = 10.0 ** exponent
    hyperbolic = classify_dim4(sp, Operator(scale * np.diag([1.0, -1.0, 1.0, -1.0]), sp))
    assert hyperbolic.type is OperatorType.HYPERBOLIC
    assert hyperbolic.minimal_polynomial == (0.0, -scale * scale)
    assert hyperbolic.eigenvalues == pytest.approx((-scale, scale), rel=1e-15)
    nilpotent = np.zeros((4, 4))
    nilpotent[0, 1] = nilpotent[3, 2] = scale
    parabolic = classify_dim4(sp, Operator(np.eye(4) + nilpotent, sp))
    assert parabolic.type is OperatorType.PARABOLIC
    assert parabolic.minimal_polynomial == (-2.0, 1.0)
    assert parabolic.eigenvalues == (1.0, 1.0)


@pytest.mark.parametrize("band", [-1.0, -1e-300, float("nan"), float("inf")])
def test_classify_dim4_refuses_a_band_below_zero_or_not_finite(band):
    # band=-1 labelled this parabolic operator elliptic, with a NaN/-inf structure
    op = direct_sum_operator([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="band must be finite and at least 0"):
        classify_dim4(standard_space(2), op, band=band)
    assert classify_dim4(standard_space(2), op, band=0.0).type is OperatorType.PARABOLIC
