import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paretopic import moo, setcl

import oracles


def random_pair(rng):
    dim = int(rng.integers(2, 50))
    scale1 = 10.0 ** rng.uniform(-3, 3)
    scale2 = 10.0 ** rng.uniform(-3, 3)
    return rng.standard_normal(dim) * scale1, rng.standard_normal(dim) * scale2


class TestAlphaMinNorm:
    def test_orthogonal_closed_form(self):
        # h(a) = a^2 + 4(1-a)^2 minimized at a = 4/5
        g1 = np.array([1.0, 0.0])
        g2 = np.array([0.0, 2.0])
        assert moo.alpha_min_norm(g1, g2) == pytest.approx(0.8)

    def test_clips_to_zero_when_g2_dominated(self):
        # g2 shorter and aligned: pure g2 is already the min-norm point
        g1 = np.array([3.0, 0.0])
        g2 = np.array([1.0, 0.0])
        assert moo.alpha_min_norm(g1, g2) == 0.0

    def test_clips_to_one_when_g1_dominated(self):
        g1 = np.array([1.0, 0.0])
        g2 = np.array([3.0, 0.0])
        assert moo.alpha_min_norm(g1, g2) == 1.0

    def test_identical_gradients_tie(self):
        g = np.array([1.0, 2.0])
        assert moo.alpha_min_norm(g, g.copy()) == 0.5

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            moo.alpha_min_norm(np.ones(3), np.ones(4))

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            g1, g2 = random_pair(rng)
            a = moo.alpha_min_norm(g1, g2)
            a_grid = moo.alpha_grid_oracle(g1, g2, steps=10_000)
            assert abs(a - a_grid) <= 1e-4

    def test_kkt_stationarity_interior(self):
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(300):
            g1, g2 = random_pair(rng)
            a = moo.alpha_min_norm(g1, g2)
            if not (0.0 < a < 1.0):
                continue
            d = oracles.blend(g1, g2, a)
            dd = float(d @ d)
            scale = max(1.0, float(g1 @ g1), float(g2 @ g2))
            assert abs(float(d @ g1) - dd) <= 1e-8 * scale
            assert abs(float(d @ g2) - dd) <= 1e-8 * scale
            checked += 1
        assert checked > 50

    def test_direction_norm_never_exceeds_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            g1, g2 = random_pair(rng)
            d = oracles.blend(g1, g2, moo.alpha_min_norm(g1, g2))
            bound = min(np.linalg.norm(g1), np.linalg.norm(g2))
            assert np.linalg.norm(d) <= bound * (1 + 1e-12)


class TestGridOracle:
    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            moo.alpha_grid_oracle(np.ones(2), np.ones(2), steps=10)

    def test_endpoints_reachable(self):
        assert moo.alpha_grid_oracle(np.array([5.0]), np.array([1.0])) == 0.0
        assert moo.alpha_grid_oracle(np.array([1.0]), np.array([5.0])) == 1.0


class TestStrategies:
    def test_mgda_matches_solver(self):
        rng = np.random.default_rng(3)
        interior = 0
        for _ in range(100):
            g1, g2 = random_pair(rng)
            l1, l2 = 10.0 ** rng.uniform(-2, 2, size=2)
            dec = moo.strategy_dispatch("mgda", g1, g2, losses=(l1, l2))
            # the solver runs on the loss+ pair g_i / (L_i ||g_i||) ...
            c1 = l1 * float(np.sqrt((g1 * g1).sum()))
            c2 = l2 * float(np.sqrt((g2 * g2).sum()))
            a = moo.alpha_min_norm(g1 / c1, g2 / c2)
            # the Gram solve scales the entries, not the vectors: equal up to rounding
            assert abs(dec.alpha - (a / c1) / (a / c1 + (1 - a) / c2)) <= 1e-12
            np.testing.assert_array_equal(dec.direction,
                                          oracles.blend(g1, g2, dec.alpha))
            # ... and the step is that pair's min-norm point, positively rescaled
            point = oracles.blend(g1 / c1, g2 / c2, a)
            np.testing.assert_allclose(dec.direction * (a / c1 + (1 - a) / c2), point,
                                       rtol=0, atol=1e-12 * np.linalg.norm(point))
            interior += 0.0 < a < 1.0
            # without losses the solve runs on the raw pair
            raw = moo.strategy_dispatch("mgda", g1, g2)
            assert raw.alpha == moo.alpha_min_norm(g1, g2)
            np.testing.assert_array_equal(raw.direction,
                                          oracles.blend(g1, g2, raw.alpha))
        assert interior > 10

    def test_mgda_direction_descends_both_losses(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            g1, g2 = random_pair(rng)
            losses = tuple(10.0 ** rng.uniform(-3, 3, size=2))
            d = moo.strategy_dispatch("mgda", g1, g2, losses=losses).direction
            assert float(d @ g1) >= 0.0
            assert float(d @ g2) >= 0.0

    def test_mgda_zero_infonce_falls_back_to_raw_pair(self):
        # one set and no own negative: the positive pair is the whole
        # softmax, so the InfoNCE loss and its gradient are exactly zero
        rng = np.random.default_rng(8)
        B, T = 6, 4
        Z, Zp, Zm = (rng.standard_normal((B, T)) for _ in range(3))
        members = setcl.members_matrix(
            setcl.build_sets(setcl.build_index_matrix(B, 1, rng), B))
        loss, dZ, dZp, dZm = setcl.infonce_with_grads(
            Z, Zp, Zm, members, 0.2, include_own_negative=False)
        g1 = np.concatenate([dZ, dZp, dZm]).ravel()
        assert loss == 0.0 and not g1.any()
        g2 = rng.standard_normal(g1.size)
        with np.errstate(all="raise"):
            dec = moo.strategy_dispatch("mgda", g1, g2, losses=(loss, 3.0))
        assert dec.alpha == moo.alpha_min_norm(g1, g2)
        np.testing.assert_array_equal(dec.direction, oracles.blend(g1, g2, dec.alpha))

    def test_linear_uses_config_alpha(self):
        dec = moo.strategy_dispatch("linear", np.array([2.0]), np.array([0.0]),
                                    linear_alpha=0.25)
        assert dec.alpha == 0.25
        np.testing.assert_allclose(dec.direction, [0.5])

    def test_linear_midpoint(self):
        dec = moo.strategy_dispatch("linear", np.array([2.0, 0.0]), np.array([0.0, 2.0]))
        np.testing.assert_allclose(dec.direction, [1.0, 1.0])

    def test_linear_endpoint_direction_is_a_new_array(self):
        g1 = np.array([1.0, 2.0])
        g2 = np.array([3.0, 4.0])
        d0 = moo.strategy_dispatch("linear", g1, g2, linear_alpha=0.0).direction
        np.testing.assert_array_equal(d0, g2)
        d0[0] = 99.0
        assert g2[0] == 3.0

    @pytest.mark.parametrize("alpha", [1.5, -0.5, float("nan")])
    def test_linear_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            moo.strategy_dispatch("linear", np.ones(2), np.ones(2), linear_alpha=alpha)

    def test_random_is_seed_reproducible(self):
        g1, g2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        a = moo.strategy_dispatch("random", g1, g2, rng=np.random.default_rng(5)).alpha
        b = moo.strategy_dispatch("random", g1, g2, rng=np.random.default_rng(5)).alpha
        assert a == b

    def test_random_without_rng_raises(self):
        with pytest.raises(ValueError):
            moo.strategy_dispatch("random", np.ones(2), np.ones(2))

    def test_pcgrad_agreeing_gradients_sum(self):
        g1 = np.array([1.0, 0.0])
        g2 = np.array([1.0, 1.0])
        dec = moo.strategy_dispatch("pcgrad", g1, g2)
        assert dec.alpha is None
        np.testing.assert_allclose(dec.direction, [2.0, 1.0])

    def test_pcgrad_conflicting_gradients_projected(self):
        # g1=(1,0), g2=(-1,1): dot=-1 < 0
        # p1 = g1 - (-1/2)g2 = (0.5, 0.5); p2 = g2 - (-1/1)g1 = (0, 1)
        dec = moo.strategy_dispatch("pcgrad", np.array([1.0, 0.0]),
                                    np.array([-1.0, 1.0]))
        np.testing.assert_allclose(dec.direction, [0.5, 1.5])

    def test_pcgrad_projections_nonconflicting(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            g1, g2 = random_pair(rng)
            d = moo.strategy_dispatch("pcgrad", g1, g2).direction
            # each projected component keeps a nonnegative dot with the other task
            if float(g1 @ g2) < 0:
                p1 = g1 - float(g1 @ g2) / float(g2 @ g2) * g2
                assert float(p1 @ g2) >= -1e-9 * np.linalg.norm(g2) ** 2
                np.testing.assert_allclose(
                    d, p1 + (g2 - float(g1 @ g2) / float(g1 @ g1) * g1))

    def test_gram_decision_matches_vector_oracles(self):
        # against the long-double difference-vector solve and the explicit PCGrad projections
        rng = np.random.default_rng(7)
        worst = dict(beta=0.0, mgda=0.0, pcgrad=0.0)
        for k in range(1000):
            dim = int(rng.integers(2, 30_001))
            g1 = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
            if k % 5 == 4:  # nearly parallel
                noise = rng.standard_normal(dim)
                g2 = 10.0 ** rng.uniform(-3, 3) * g1
                g2 += 1e-3 * np.linalg.norm(g2) / np.linalg.norm(noise) * noise
            else:
                g2 = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
            for losses in (None, tuple(10.0 ** rng.uniform(-3, 3, size=2))):
                dec = moo.strategy_dispatch("mgda", g1, g2, losses=losses)
                beta, denom = oracles.mgda_beta(g1, g2, losses, moo.TIE_EPS)
                ref = oracles.blend(g1, g2, beta)
                worst["beta"] = max(worst["beta"], abs(dec.alpha - beta))
                worst["mgda"] = max(worst["mgda"], np.linalg.norm(dec.direction - ref)
                                    / np.linalg.norm(ref))
                assert dec.diagnostics.get("degenerate_pair", False) == \
                    (denom < moo.TIE_EPS)
            ref = oracles.pcgrad_direction(g1, g2)
            d = moo.strategy_dispatch("pcgrad", g1, g2).direction
            worst["pcgrad"] = max(worst["pcgrad"],
                                  np.linalg.norm(d - ref) / np.linalg.norm(ref))
        # no pair above is degenerate; exact ties are, on both sides
        g = rng.standard_normal(100)
        for losses in (None, (2.0, 2.0)):
            dec = moo.strategy_dispatch("mgda", g, g.copy(), losses=losses)
            assert dec.alpha == 0.5 and dec.diagnostics["degenerate_pair"]
            assert oracles.mgda_beta(g, g.copy(), losses, moo.TIE_EPS) == (0.5, 0.0)
        # the long-double oracle rounds well below float64 only where it is wider
        if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
            assert worst["beta"] <= 1e-12, worst
        assert worst["mgda"] <= 1e-7, worst
        assert worst["pcgrad"] <= 1e-12, worst

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            moo.strategy_dispatch("adam", np.ones(2), np.ones(2))

    def test_diagnostics_fields(self):
        dec = moo.strategy_dispatch("mgda", np.array([3.0, 4.0]), np.array([0.0, 1.0]))
        assert dec.diagnostics["g1_norm"] == pytest.approx(5.0)
        assert dec.diagnostics["g2_norm"] == pytest.approx(1.0)
        assert dec.diagnostics["g1_dot_g2"] == pytest.approx(4.0)


# Evaluated in a fresh interpreter per BLAS thread count; the pair has the
# planted encoder's size, large enough for OpenBLAS to split a dot product
# across threads.
THREAD_PROBE = """
import hashlib
import numpy as np
from paretopic import moo
rng = np.random.default_rng(2402)
g1 = 80.0 * rng.standard_normal(21_110)
g2 = 1000.0 * rng.standard_normal(21_110) - 40.0 * g1
print("alpha_min_norm", moo.alpha_min_norm(g1, g2).hex())
for name, losses in (("mgda", None), ("mgda", (350.0, 19000.0)), ("pcgrad", None)):
    dec = moo.strategy_dispatch(name, g1, g2, losses=losses)
    print(name, losses, "alpha", dec.alpha if dec.alpha is None else dec.alpha.hex())
    print(name, losses, "direction", hashlib.sha256(dec.direction.tobytes()).hexdigest())
    for key, value in sorted(dec.diagnostics.items()):
        print(name, losses, key, float(value).hex())
"""


def test_mgda_independent_of_blas_threads():
    src = str(Path(moo.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
