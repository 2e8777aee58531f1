"""Greedy interpolation of elementwise viscosity and stabilization fields."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmor.constitutive import CarreauYasudaParams, field_values
from stmor.eim import EimApproximation, EimError, FieldSampleSet, eim_greedy
from stmor.fom import FomAssembler
from stmor.mesh import extrude, interval_mesh, rectangle_mesh

BLOOD = CarreauYasudaParams(eta_0=0.056, eta_inf=0.00345, lam=1.902, a=1.25,
                            n=0.22, rho=1058.0)
INVISCID = CarreauYasudaParams(eta_0=0.0, eta_inf=0.0, lam=1.0, a=1.0,
                               n=0.5, rho=1.0)


def rank_k_samples(n, cols, k, seed, tag="eta"):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, k))
    C = rng.standard_normal((k, cols))
    S = B @ C
    assert np.linalg.matrix_rank(S) == k
    return FieldSampleSet(tag=tag, values=S)


class TestGreedy:
    def test_rank_one_family_terminates_immediately(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(50)
        S = np.outer(w, [1.0, -2.0, 0.5, 3.0, 0.1])
        approx = eim_greedy(FieldSampleSet(tag="eta", values=S), tol=1e-13, q_max=10)
        assert approx.n_terms == 1
        assert approx.history[0] == 1.0
        assert approx.history[-1] <= 1e-13

    def test_rank_three_family(self):
        samples = rank_k_samples(80, 9, 3, seed=1)
        approx = eim_greedy(samples, tol=1e-14, q_max=9)
        assert approx.n_terms == 3
        assert approx.history[-1] <= 1e-14
        assert approx.history[0] == 1.0

    def test_history_and_interpolation_matrix_shape(self):
        samples = rank_k_samples(60, 8, 5, seed=2)
        approx = eim_greedy(samples, tol=1e-15, q_max=4)
        assert approx.n_terms == 4
        assert approx.history.shape == (5,)
        T = approx.T
        assert np.all(np.triu(T, 1) == 0.0)
        np.testing.assert_array_equal(np.diag(T), 1.0)
        # basis normalization at the magic elements
        for q in range(4):
            assert approx.basis[approx.magic[q], q] == 1.0
            np.testing.assert_array_equal(approx.basis[approx.magic[:q], q], 0.0)

    def test_tie_break_prefers_lower_column(self):
        S = np.zeros((10, 2))
        S[3, 0] = 2.0
        S[7, 1] = 2.0
        approx = eim_greedy(FieldSampleSet(tag="tau", values=S), tol=1e-14, q_max=4)
        assert approx.magic[0] == 3

    def test_interpolation_exact_at_magic_elements(self):
        samples = rank_k_samples(70, 10, 6, seed=3)
        approx = eim_greedy(samples, tol=1e-15, q_max=6)
        for j in range(samples.values.shape[1]):
            col = samples.values[:, j]
            rec = approx.interpolate(col[approx.magic])
            scale = np.abs(col).max()
            assert np.abs(rec[approx.magic] - col[approx.magic]).max() <= 1e-13 * scale

    @settings(max_examples=10, deadline=None)
    @given(k=st.integers(1, 5), q=st.integers(1, 5))
    def test_nestedness(self, k, q):
        samples = rank_k_samples(40, 8, k, seed=4)
        full = eim_greedy(samples, tol=1e-16, q_max=k)
        qq = min(q, full.n_terms)
        part = eim_greedy(samples, tol=1e-16, q_max=qq)
        np.testing.assert_array_equal(part.magic, full.magic[:qq])
        np.testing.assert_array_equal(part.basis, full.basis[:, :qq])
        np.testing.assert_array_equal(part.T, full.T[:qq, :qq])

    def test_rejects_bad_input(self):
        good = FieldSampleSet(tag="eta", values=np.ones((5, 2)))
        with pytest.raises(EimError):
            eim_greedy(good, tol=0.0, q_max=3)
        with pytest.raises(EimError, match="zero"):
            eim_greedy(FieldSampleSet(tag="eta", values=np.zeros((5, 2))),
                       tol=1e-10, q_max=3)
        with pytest.raises(EimError, match="finite"):
            FieldSampleSet(tag="eta", values=np.array([[np.nan, 1.0]]))
        with pytest.raises(EimError, match="tag"):
            FieldSampleSet(tag="pressure", values=np.ones((2, 2)))


class TestCoefficients:
    def test_unit_response(self):
        samples = rank_k_samples(50, 8, 4, seed=5)
        approx = eim_greedy(samples, tol=1e-15, q_max=4)
        for q in range(4):
            c = approx.coefficients(approx.T[:, q])
            np.testing.assert_allclose(c, np.eye(4)[q], atol=1e-13)

    def test_held_out_column_of_rank_q_family(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((60, 4))
        train = B @ rng.standard_normal((4, 10))
        held = B @ rng.standard_normal(4)
        approx = eim_greedy(FieldSampleSet(tag="eta", values=train),
                            tol=1e-15, q_max=4)
        assert approx.n_terms == 4
        rec = approx.interpolate(held[approx.magic])
        assert np.abs(rec - held).max() <= 1e-12 * np.abs(held).max()

    def test_wrong_length_rejected(self):
        samples = rank_k_samples(30, 5, 2, seed=7)
        approx = eim_greedy(samples, tol=1e-15, q_max=2)
        with pytest.raises(EimError, match="magic"):
            approx.coefficients(np.ones(5))
        with pytest.raises(EimError, match="magic"):
            approx.coefficients(np.ones((2, 1, 1)))

    def test_online_copy_without_basis(self):
        # a package read from disk keeps magic, T and history only
        samples = rank_k_samples(30, 5, 3, seed=10)
        approx = eim_greedy(samples, tol=1e-15, q_max=3)
        online = EimApproximation(tag="eta", basis=None, magic=approx.magic,
                                  T=approx.T, history=approx.history)
        assert online.n_terms == 3
        vals = samples.values[approx.magic, 1]
        np.testing.assert_array_equal(online.coefficients(vals),
                                      approx.coefficients(vals))


def subset_fields(asm, ids, u, params):
    """The element-field kernel on chosen elements, from assembler geometry."""
    ids = np.asarray(ids)
    return field_values(asm.gx[ids], asm.h_t[ids], asm.h_s[ids],
                        u[asm.elems[ids]], params)


class TestFieldEvaluation:
    def mesh(self):
        spatial = rectangle_mesh([0, 0.5, 1.0], [0, 0.5, 1.0], "dirichlet:l",
                                 "dirichlet:r", "dirichlet:b", "dirichlet:t")
        return extrude(spatial, [0.0, 0.4, 1.0])

    def test_matches_fom_assembly_on_all_elements(self):
        mesh = self.mesh()
        rng = np.random.default_rng(8)
        u = rng.standard_normal((mesh.n_nodes, 2))
        asm = FomAssembler(mesh)
        full = asm.element_fields(u, BLOOD)
        for ids in (np.arange(mesh.n_elements), np.array([7, 0, 5, 5])):
            for got, want in zip(subset_fields(asm, ids, u, BLOOD), full):
                np.testing.assert_array_equal(got, want[ids])

    def test_zero_velocity_gives_eta0(self):
        mesh = self.mesh()
        u = np.zeros((mesh.n_nodes, 2))
        _, eta, _ = subset_fields(FomAssembler(mesh), [0, 5, 7], u, BLOOD)
        np.testing.assert_allclose(eta, BLOOD.eta_0, rtol=1e-15)

    def test_single_element_tau_rest_limit(self):
        mesh = extrude(interval_mesh(0.0, 1.0, 2), [0.0, 0.5, 1.0])
        u = np.zeros((mesh.n_nodes, 1))
        _, _, tau = subset_fields(FomAssembler(mesh), [3], u, INVISCID)
        assert tau[0] == pytest.approx(0.25, rel=1e-14)   # h_t = 0.5 on this level

    def test_cost_scales_with_subset(self):
        mesh = self.mesh()
        u = np.zeros((mesh.n_nodes, 2))
        gd, eta, tau = subset_fields(FomAssembler(mesh), [2], u, BLOOD)
        assert gd.shape == eta.shape == tau.shape == (1,)
