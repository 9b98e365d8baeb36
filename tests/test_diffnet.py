import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from paretopic import diffnet
from paretopic.errors import NumericError

RNG = np.random.default_rng(7)


def fd_grad(fn, x, h=1e-6):
    """Central-difference gradient of a scalar function of a flat array."""
    x = x.astype(np.float64).copy()
    g = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = fn(x)
        flat[i] = orig - h
        lm = fn(x)
        flat[i] = orig
        g.ravel()[i] = (lp - lm) / (2 * h)
    return g


class TestActivations:
    def test_softplus_values(self):
        softplus = diffnet.softplus_and_sigmoid(np.array([0.0, 800.0, -800.0]))[0]
        np.testing.assert_allclose(softplus[0], np.log(2.0))
        # large inputs stay finite and linear, or vanish
        assert softplus[1] == 800.0 and softplus[2] == 0.0

    def test_softplus_backward_is_sigmoid(self):
        x = RNG.standard_normal(10)
        softplus, sig = diffnet.softplus_and_sigmoid(x)
        np.testing.assert_allclose(sig, 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)
        loss = lambda xv: float(diffnet.softplus_and_sigmoid(xv)[0].sum())
        np.testing.assert_allclose(sig, fd_grad(loss, x), atol=1e-7)

    def test_sigmoid_matches_mask_oracle_bit_for_bit(self):
        edges = [0.0, 1e-300, 709.0, 745.0, 800.0, np.inf]
        cases = [np.array(edges + [-v for v in edges] + [np.nan])]
        cases += [RNG.standard_normal((4, 50)) * scale for scale in (0.1, 1, 10, 100, 1000)]
        for x in cases:
            # equal_nan: a NaN input gives NaN from both, whatever its sign bit
            assert np.array_equal(diffnet.sigmoid(x), oracles.sigmoid(x), equal_nan=True)

    def test_softmax_rows_sum_to_one(self):
        y = diffnet.softmax(RNG.standard_normal((5, 7)) * 50)
        np.testing.assert_allclose(y.sum(axis=1), np.ones(5), rtol=1e-12)
        assert np.all(y >= 0)

    def test_softmax_backward_matches_fd(self):
        x = RNG.standard_normal((2, 5))
        dy = RNG.standard_normal((2, 5))
        y = diffnet.softmax(x)
        dx = diffnet.softmax_backward(y, dy)
        loss = lambda xv: float((diffnet.softmax(xv) * dy).sum())
        np.testing.assert_allclose(dx, fd_grad(loss, x), atol=1e-7)

    def test_log_softmax_backward_matches_fd(self):
        x = RNG.standard_normal((2, 5))
        dy = RNG.standard_normal((2, 5))
        dx = oracles.log_softmax_backward(oracles.log_softmax(x), dy)
        loss = lambda xv: float((oracles.log_softmax(xv) * dy).sum())
        np.testing.assert_allclose(dx, fd_grad(loss, x), atol=1e-7)

    @given(st.floats(-30, 30))
    def test_log_softmax_consistent_with_softmax(self, shift):
        x = np.array([[0.0 + shift, 1.0 + shift, -2.0 + shift]])
        np.testing.assert_allclose(np.exp(oracles.log_softmax(x)),
                                   diffnet.softmax(x), rtol=1e-10)


class TestPool:
    def test_modes(self):
        rows = np.array([[2.0, 2.0], [0.0, 0.0]])
        np.testing.assert_allclose(oracles.pool(rows, "min"), [0.0, 0.0])
        np.testing.assert_allclose(oracles.pool(rows, "max"), [2.0, 2.0])
        np.testing.assert_allclose(oracles.pool(rows, "mean"), [1.0, 1.0])
        np.testing.assert_allclose(oracles.pool(rows, "sum"), [2.0, 2.0])

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="pool mode"):
            oracles.pool(np.ones((2, 2)), "median")

    def test_backward_tie_goes_to_lowest_row(self):
        rows = np.array([[1.0], [1.0]])
        drows = oracles.pool_backward(rows, "max", np.array([3.0]))
        np.testing.assert_allclose(drows, [[3.0], [0.0]])

    @pytest.mark.parametrize("mode", oracles.POOL_MODES)
    def test_backward_matches_fd(self, mode):
        rows = RNG.standard_normal((4, 3))
        dy = RNG.standard_normal(3)
        drows = oracles.pool_backward(rows, mode, dy)
        loss = lambda r: float(oracles.pool(r, mode) @ dy)
        np.testing.assert_allclose(drows, fd_grad(loss, rows), atol=1e-7)


class TestCosine:
    def test_parallel_and_orthogonal(self):
        u = np.array([1.0, 0.0])
        assert oracles.cosine_sim_tau(u, 3 * u, 0.5) == pytest.approx(2.0)
        assert oracles.cosine_sim_tau(u, np.array([0.0, 2.0]), 1.0) == pytest.approx(0.0)

    def test_zero_norm_raises(self):
        with pytest.raises(NumericError):
            oracles.cosine_sim_tau(np.zeros(3), np.ones(3), 1.0)

    def test_backward_matches_fd(self):
        u = RNG.standard_normal(6)
        v = RNG.standard_normal(6)
        du, dv = oracles.cosine_sim_tau_backward(u, v, 0.2, 1.7)
        loss_u = lambda uv: 1.7 * oracles.cosine_sim_tau(uv, v, 0.2)
        loss_v = lambda vv: 1.7 * oracles.cosine_sim_tau(u, vv, 0.2)
        np.testing.assert_allclose(du, fd_grad(loss_u, u), atol=1e-6)
        np.testing.assert_allclose(dv, fd_grad(loss_v, v), atol=1e-6)

    def test_scale_invariance_of_value(self):
        u = RNG.standard_normal(4)
        v = RNG.standard_normal(4)
        a = oracles.cosine_sim_tau(u, v, 0.3)
        b = oracles.cosine_sim_tau(5 * u, 0.1 * v, 0.3)
        assert a == pytest.approx(b, rel=1e-12)


class TestGradCheck:
    def test_accepts_correct_gradient(self):
        A = RNG.standard_normal((5, 5))
        Q = A + A.T

        def quad(p):
            return float(p @ Q @ p), 2 * Q @ p

        assert diffnet.grad_check(quad, RNG.standard_normal(5)) < 1e-7

    def test_rejects_wrong_gradient(self):
        def wrong(p):
            return float(p @ p), 3 * p

        assert diffnet.grad_check(wrong, np.ones(4)) > 1e-2

    def test_nonfinite_base_raises(self):
        def bad(p):
            return float("nan"), p

        with pytest.raises(NumericError):
            diffnet.grad_check(bad, np.ones(3))
