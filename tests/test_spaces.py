import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_gram_V, dirichlet_space
from evolveq.fem import consistent_mass
from evolveq.forms import embedding_constant
from evolveq.spaces import GalerkinSpace, StructureError

# frozen by an independent dense solve of gram_V (see test below)
HAT_SUM_DUAL_NORM = 0.27509006975737504


def dual_norm(space, g):
    """V'-norm of a functional given by its pairings g: sqrt(g^T gram_V^{-1} g)."""
    g = np.asarray(g, dtype=float)
    return float(np.sqrt(max(float(g @ space.solve_V(g)), 0.0)))


def h_representation(space, u):
    """The pairings of the functional (u | .)_H."""
    return space.h * np.asarray(u, dtype=float)


def scalar_space(gh, gv):
    return GalerkinSpace(np.array([gh]), np.array([[gv]]))


class TestDualNorm:
    def test_scalar_closed_form(self):
        space = scalar_space(1.0, 2.0)
        assert dual_norm(space, np.array([1.0])) == pytest.approx(
            1.0 / np.sqrt(2.0), abs=1e-15)

    def test_zero_functional(self):
        space = dirichlet_space(8)
        assert dual_norm(space, np.zeros(space.dim)) == 0.0

    def test_hat_sum_regression(self):
        # the dual norm reads only gram_V and g: the pairings of the constant
        # 1 against the consistent mass, whatever the H-Gram
        space = dirichlet_space(64)
        g = consistent_mass(64)[1:-1, 1:-1] @ np.ones(space.dim)
        assert dual_norm(space, g) == pytest.approx(HAT_SUM_DUAL_NORM, abs=1e-12)
        # independent oracle: plain dense solve instead of the banded Cholesky path
        direct = np.sqrt(g @ np.linalg.solve(dense_gram_V(space), g))
        assert dual_norm(space, g) == pytest.approx(direct, rel=1e-12)


class TestEmbeddingConstant:
    def test_identical_norms(self):
        h = np.array([2.0, 1.0])
        assert embedding_constant(GalerkinSpace(h, np.diag(h))) == pytest.approx(
            1.0, abs=1e-12)

    def test_scalar_ratio(self):
        assert embedding_constant(scalar_space(1.0, 4.0)) == pytest.approx(0.5)

    def test_dirichlet_poincare_limit(self):
        space = dirichlet_space(64)
        target = 1.0 / np.sqrt(1.0 + np.pi**2)
        assert embedding_constant(space) == pytest.approx(target, abs=2e-3)


class TestStructure:
    def test_rejects_nonsymmetric(self):
        with pytest.raises(StructureError, match="symmetric"):
            GalerkinSpace(np.ones(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(StructureError, match="positive"):
            GalerkinSpace(np.array([1.0, -1.0]), np.eye(2))
        with pytest.raises(StructureError, match="positive"):
            GalerkinSpace(np.ones(2), np.diag([1.0, -1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(StructureError):
            GalerkinSpace(np.ones(2), np.eye(3))

    def test_rejects_a_matrix_h_gram(self):
        # the H-Gram is a lumped mass, given as its diagonal: a consistent
        # mass, and even a diagonal matrix, is refused when the space is built
        mass = consistent_mass(8)[1:-1, 1:-1]
        for gram_h in (mass, np.diag(np.diag(mass))):
            with pytest.raises(StructureError, match="lumped"):
                GalerkinSpace(gram_h, mass)


class TestNormProperties:
    def test_embedding_inequality_random(self, rng):
        space = dirichlet_space(32)
        c = embedding_constant(space)
        for u in rng.standard_normal((1000, space.dim)):
            assert space.h_norms(u[:, None])[0] <= c * space.v_norm(u) * (1 + 1e-10)

    def test_dual_norm_of_h_representation(self, rng):
        space = dirichlet_space(32)
        c = embedding_constant(space)
        for u in rng.standard_normal((1000, space.dim)):
            g = h_representation(space, u)
            assert dual_norm(space, g) <= c * space.h_norms(u[:, None])[0] * (1 + 1e-10)

    def test_dual_norm_is_a_norm(self, rng):
        space = dirichlet_space(16)
        for _ in range(200):
            g1 = rng.standard_normal(space.dim)
            g2 = rng.standard_normal(space.dim)
            s = rng.standard_normal()
            assert dual_norm(space, s * g1) == pytest.approx(
                abs(s) * dual_norm(space, g1), rel=1e-10, abs=1e-12)
            assert dual_norm(space, g1 + g2) <= (
                dual_norm(space, g1) + dual_norm(space, g2)) * (1 + 1e-10)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=6))
def test_diagonal_space_embedding_is_max_ratio(diag):
    d = np.array(diag)
    space = GalerkinSpace(d, np.eye(d.size))
    assert embedding_constant(space) == pytest.approx(np.sqrt(d.max()), rel=1e-10)
