"""Shear rate, viscosity law, and parameter semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmor.constitutive import (
    BodyForce,
    CarreauYasudaParams,
    ParameterBox,
    ParameterError,
    ParameterSpace,
    SEMANTICS_BC_SCALE,
    SEMANTICS_MATERIAL,
    apply_parameters,
    field_values,
    relative_box,
    shear_rate,
    tau_scales,
    viscosity,
)

PC_MELT = CarreauYasudaParams(eta_0=270.0, eta_inf=0.0, lam=1.2e-3, a=1.0,
                              n=0.775, rho=1200.0)
BLOOD = CarreauYasudaParams(eta_0=0.056, eta_inf=0.00345, lam=1.902, a=1.25,
                            n=0.22, rho=1058.0)

# closed form evaluated independently (mpmath, 40 digits) and frozen:
# 0.00345 + 0.05255*(1 + (1.902*100)**1.25)**((0.22-1)/1.25)
BLOOD_ETA_AT_100 = 0.004325800368739063

finite_grads = st.lists(st.floats(-10, 10), min_size=4, max_size=4).map(
    lambda v: np.array(v).reshape(2, 2))


class TestShearRate:
    def test_zero(self):
        assert shear_rate(np.zeros((2, 2))) == 0.0

    def test_simple_shear(self):
        # eps = [[0, 1/2], [1/2, 0]], 2 eps:eps = 1
        g = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert shear_rate(g) == pytest.approx(1.0, rel=1e-15)

    def test_pure_extension(self):
        # 2(1 + 1) = 4
        g = np.diag([1.0, -1.0])
        assert shear_rate(g) == pytest.approx(2.0, rel=1e-15)

    def test_vectorized(self):
        g = np.stack([np.zeros((2, 2)), np.diag([1.0, -1.0])])
        np.testing.assert_allclose(shear_rate(g), [0.0, 2.0], rtol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(g=finite_grads)
    def test_transpose_invariance(self, g):
        assert shear_rate(g) == pytest.approx(shear_rate(g.T), rel=1e-12, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(g=finite_grads, c=st.floats(-5, 5))
    def test_homogeneity(self, g, c):
        assert shear_rate(c * g) == pytest.approx(abs(c) * shear_rate(g),
                                                  rel=1e-12, abs=1e-12)


class TestViscosity:
    def test_zero_shear_gives_eta0(self):
        assert viscosity(0.0, PC_MELT) == 270.0

    def test_newtonian_when_n_is_one(self):
        p = CarreauYasudaParams(eta_0=3.0, eta_inf=1.0, lam=2.0, a=1.3, n=1.0, rho=1.0)
        np.testing.assert_allclose(viscosity(np.array([0.0, 1.0, 1e4]), p), 3.0,
                                   rtol=1e-15)

    def test_blood_closed_form(self):
        assert viscosity(100.0, BLOOD) == pytest.approx(BLOOD_ETA_AT_100, rel=1e-12)

    def test_bounds_and_monotone(self):
        gd = np.logspace(-6, 6, 200)
        eta = viscosity(gd, BLOOD)
        assert np.all(eta <= BLOOD.eta_0) and np.all(eta >= BLOOD.eta_inf)
        assert np.all(np.diff(eta) < 0)
        eta_pc = viscosity(gd, PC_MELT)
        assert np.all(np.diff(eta_pc) < 0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ParameterError):
            CarreauYasudaParams(eta_0=1.0, eta_inf=2.0, lam=1.0, a=1.0, n=0.5, rho=1.0)
        with pytest.raises(ParameterError):
            CarreauYasudaParams(eta_0=1.0, eta_inf=0.0, lam=1.0, a=0.0, n=0.5, rho=1.0)
        with pytest.raises(ParameterError):
            CarreauYasudaParams(eta_0=1.0, eta_inf=0.0, lam=1.0, a=1.0, n=0.5, rho=-1.0)

    @pytest.mark.parametrize("field", ["eta_0", "eta_inf", "lam", "a", "n", "rho"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_params_rejected(self, field, value):
        good = dict(eta_0=1.0, eta_inf=0.1, lam=1.0, a=1.0, n=0.5, rho=1.0)
        with pytest.raises(ParameterError, match="need finite"):
            CarreauYasudaParams(**dict(good, **{field: value}))


class TestFieldValues:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_hoisted_scales_are_bitwise_the_inline_formula(self, d):
        rng = np.random.default_rng(d)
        m = 50
        grad = rng.standard_normal((m, d, d))
        mean_u = rng.standard_normal((m, d))
        h_t = rng.uniform(0.01, 1.0, m)
        h_s = rng.uniform(0.01, 1.0, m)
        for params in (PC_MELT, BLOOD):
            gd, eta, tau = field_values(grad, mean_u, tau_scales(h_t, h_s), params)
            # the kernel with its geometric scales written inline
            want_gd = shear_rate(grad)
            want_eta = viscosity(want_gd, params)
            speed = np.sqrt((mean_u * mean_u).sum(axis=-1))
            nu = want_eta / params.rho
            want_tau = 1.0 / np.sqrt((2.0 / h_t) ** 2 + (2.0 * speed / h_s) ** 2
                                     + (4.0 * nu / h_s ** 2) ** 2)
            for got, want in ((gd, want_gd), (eta, want_eta), (tau, want_tau)):
                assert np.array_equal(got, want)


class TestParameters:
    def valve_space(self):
        return ParameterSpace(box=relative_box(("lambda", "n"), (1.2e-3, 0.775)),
                              semantics=SEMANTICS_MATERIAL)

    def artery_space(self):
        return ParameterSpace(box=relative_box(("u0_in",), (0.1,)),
                              semantics=SEMANTICS_BC_SCALE, targets=("inlet",))

    def test_center_is_identity(self):
        eff, amps = apply_parameters(PC_MELT, {}, [1.2e-3, 0.775], self.valve_space())
        assert eff == PC_MELT
        assert amps == {}

    def test_valve_corner(self):
        eff, _ = apply_parameters(PC_MELT, {}, [1.05 * 1.2e-3, 0.95 * 0.775],
                                  self.valve_space())
        assert eff.lam == pytest.approx(1.26e-3, rel=1e-12)
        assert eff.n == pytest.approx(0.73625, rel=1e-12)
        assert eff.eta_0 == PC_MELT.eta_0 and eff.rho == PC_MELT.rho

    def test_artery_amplitude(self):
        eff, amps = apply_parameters(BLOOD, {"inlet": 0.1, "wall": 1.0},
                                     [0.95 * 0.1], self.artery_space())
        assert eff == BLOOD
        assert amps["inlet"] == pytest.approx(0.095, rel=1e-12)
        assert amps["wall"] == 1.0

    def test_out_of_box_rejected(self):
        with pytest.raises(ParameterError, match="outside"):
            apply_parameters(PC_MELT, {}, [2.0 * 1.2e-3, 0.775], self.valve_space())

    def test_unknown_component_rejected(self):
        space = ParameterSpace(box=ParameterBox(("bogus",), (0.0,), (1.0,)),
                               semantics=SEMANTICS_MATERIAL)
        with pytest.raises(ParameterError, match="bogus"):
            apply_parameters(PC_MELT, {}, [0.5], space)

    def test_unknown_target_rejected(self):
        space = ParameterSpace(box=relative_box(("u0_in",), (0.1,)),
                               semantics=SEMANTICS_BC_SCALE, targets=("missing",))
        with pytest.raises(ParameterError, match="missing"):
            apply_parameters(BLOOD, {"inlet": 0.1}, [0.1], space)

    def test_box_corners(self):
        box = relative_box(("a", "b"), (1.0, 2.0))
        corners = box.corners()
        assert corners.shape == (4, 2)
        assert {tuple(c) for c in corners} == {(0.95, 1.9), (0.95, 2.1),
                                               (1.05, 1.9), (1.05, 2.1)}

    def test_body_force(self):
        np.testing.assert_array_equal(BodyForce((1.0, 2.0)).vector(2), [1.0, 2.0])
        assert BodyForce().vector(2).tolist() == [0.0, 0.0]
        with pytest.raises(ParameterError):
            BodyForce((np.inf, 0.0))
