"""Method-of-snapshots POD, truncation rules, and basis assembly."""

import numpy as np
import pytest

from stmor.fom import LiftingFunction, fom_inner_products
from stmor.mesh import extrude, rectangle_mesh
from stmor.pod import PodError, assemble_basis, compute_pod, projection_error


def small_gram():
    spatial = rectangle_mesh([0, 0.5, 1.0], [0, 0.5, 1.0], "dirichlet:l",
                             "dirichlet:r", "dirichlet:b", "dirichlet:t")
    mesh = extrude(spatial, [0.0, 0.5, 1.0])
    return fom_inner_products(mesh)["M_p"], mesh


def gram_orthonormalize(vectors, K):
    """Dense reference orthogonalization, independent of the POD code path."""
    out = []
    for v in vectors:
        w = v.astype(float).copy()
        for b in out:
            w -= (b @ (K @ w)) * b
        w /= np.sqrt(w @ (K @ w))
        out.append(w)
    return np.array(out)


class TestComputePod:
    def test_identical_snapshots_single_mode(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(30)
        S = np.tile(s, (5, 1))
        modes, spectrum = compute_pod(S)
        assert np.sum(spectrum > 1e-12) == 1
        assert modes.shape == (30, 1)
        assert projection_error(modes, None, s) <= 1e-12 * np.linalg.norm(s)

    def test_two_orthonormal_snapshots(self):
        K, _ = small_gram()
        n = K.shape[0]
        rng = np.random.default_rng(2)
        B = gram_orthonormalize(rng.standard_normal((2, n)), K)
        modes, spectrum = compute_pod(B, gram=K)
        np.testing.assert_allclose(spectrum[:2], [1.0, 1.0], rtol=1e-10)
        for s in B:
            assert projection_error(modes, K, s) <= 1e-12

    def test_rank_three_family(self):
        # 10 snapshots drawn from a known 3-dimensional subspace
        K, _ = small_gram()
        n = K.shape[0]
        rng = np.random.default_rng(3)
        B = gram_orthonormalize(rng.standard_normal((3, n)), K)
        coeffs = rng.standard_normal((10, 3)) @ np.diag([3.0, 1.0, 0.2])
        S = coeffs @ B
        modes, spectrum = compute_pod(S, gram=K, n_modes=3)
        assert np.sum(spectrum > 1e-10) == 3
        assert modes.shape[1] == 3
        for s in S:
            # oracle: the generating subspace reproduces each snapshot exactly
            r = s - B.T @ (B @ (K @ s))
            assert np.sqrt(r @ (K @ r)) <= 1e-10
            assert projection_error(modes, K, s) <= 1e-8

    def test_orthonormality_to_1e10(self):
        K, _ = small_gram()
        n = K.shape[0]
        rng = np.random.default_rng(4)
        S = rng.standard_normal((8, 3)) @ rng.standard_normal((3, n))
        modes, _ = compute_pod(S, gram=K, n_modes=8)
        red = modes.T @ (K @ modes)
        assert np.abs(red - np.eye(modes.shape[1])).max() <= 1e-10

    def test_spectrum_descends_and_is_normalized(self):
        rng = np.random.default_rng(5)
        S = rng.standard_normal((12, 40))
        _, spectrum = compute_pod(S, n_modes=5)
        assert spectrum[0] == 1.0
        assert np.all(np.diff(spectrum) <= 0)
        assert np.all(spectrum >= 0)

    def test_energy_threshold_truncation(self):
        c = np.array([100.0, 1.0, 1e-4, 1e-20])
        S = np.zeros((4, 10))
        S[np.arange(4), np.arange(4)] = np.sqrt(c)
        modes, _ = compute_pod(S, energy_threshold=0.99)
        assert modes.shape[1] == 1
        modes, _ = compute_pod(S, energy_threshold=0.9999)
        assert modes.shape[1] == 2
        # threshold 1 keeps everything above the rank cutoff, not the noise
        modes, _ = compute_pod(S, energy_threshold=1.0)
        assert modes.shape[1] == 3

    def test_fixed_n_capped_by_rank(self):
        S = np.zeros((4, 10))
        S[:2, :2] = np.eye(2)
        S[2] = S[0] + S[1]
        S[3] = S[0] - S[1]
        modes, _ = compute_pod(S, n_modes=4)
        assert modes.shape[1] == 2

    def test_rejects_bad_input(self):
        with pytest.raises(PodError):
            compute_pod(np.zeros((0, 5)))
        with pytest.raises(PodError):
            compute_pod(np.ones((2, 5)), energy_threshold=0.0)
        with pytest.raises(PodError):
            compute_pod(np.ones((2, 5)), energy_threshold=1.5)
        with pytest.raises(PodError, match="zero energy"):
            compute_pod(np.zeros((3, 5)))

    def test_deterministic_with_fixed_input(self):
        rng = np.random.default_rng(6)
        S = rng.standard_normal((6, 25))
        m1, s1 = compute_pod(S, n_modes=4)
        m2, s2 = compute_pod(S, n_modes=4)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(s1, s2)
        # sign convention: the largest-magnitude entry of every mode is positive
        for j in range(m1.shape[1]):
            assert m1[np.argmax(np.abs(m1[:, j])), j] > 0

    def test_pod_optimality_spot_check(self):
        K, _ = small_gram()
        n = K.shape[0]
        rng = np.random.default_rng(7)
        S = rng.standard_normal((12, 6)) @ rng.standard_normal((6, n))
        N = 3
        modes, _ = compute_pod(S, gram=K, n_modes=N)
        pod_err = sum(projection_error(modes, K, s) ** 2 for s in S)
        for trial in range(20):
            pick = np.random.default_rng(100 + trial).choice(12, size=N, replace=False)
            B = gram_orthonormalize(S[pick], K)
            rand_err = sum(projection_error(B.T, K, s) ** 2 for s in S)
            assert pod_err <= rand_err + 1e-10 * max(1.0, rand_err)


class TestAssembleBasis:
    def test_zero_lift_plus_two_modes(self):
        rng = np.random.default_rng(8)
        modes = np.linalg.qr(rng.standard_normal((20, 2)))[0]
        lift = LiftingFunction(group="fixed", vector=np.zeros((10, 2)), coefficient=1.0)
        basis = assemble_basis(modes, np.empty((7, 0)), [lift])
        assert basis.n_u == 3
        assert basis.n_lifts == 1
        assert basis.n_velocity_modes == 2
        assert np.all(basis.Z_v[:, 0] == 0.0)
        np.testing.assert_array_equal(basis.Z_v[:, 1:], modes)

    def test_two_lifts_lead(self):
        rng = np.random.default_rng(9)
        modes = rng.standard_normal((20, 3))
        l1 = LiftingFunction(group="fixed", vector=rng.standard_normal((10, 2)),
                             coefficient=1.0)
        l2 = LiftingFunction(group="inlet", vector=rng.standard_normal((10, 2)),
                             coefficient=0.1)
        basis = assemble_basis(modes, rng.standard_normal((7, 2)), [l1, l2])
        assert basis.n_u == 5 and basis.n_lifts == 2
        np.testing.assert_array_equal(basis.Z_v[:, 0], l1.vector.ravel())
        np.testing.assert_array_equal(basis.Z_v[:, 1], l2.vector.ravel())
