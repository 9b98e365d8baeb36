import math

import numpy as np
import pytest

import oracles
from oracles import SetRepresentation, set_representations, setwise_infonce
from paretopic import setcl
from paretopic.errors import NumericError


class TestIndexMatrix:
    def test_identity_first_row(self):
        M = setcl.build_index_matrix(4, 1, rng_seed=0)
        assert M.tolist() == [[0, 1, 2, 3]]

    def test_rows_are_permutations(self):
        M = setcl.build_index_matrix(4, 3, rng_seed=7)
        assert M.shape == (3, 4)
        for row in M:
            assert sorted(row.tolist()) == [0, 1, 2, 3]

    def test_single_doc(self):
        M = setcl.build_index_matrix(1, 5, rng_seed=0)
        assert M.tolist() == [[0]] * 5

    def test_seed_reproducible(self):
        a = setcl.build_index_matrix(10, 4, rng_seed=3)
        b = setcl.build_index_matrix(10, 4, rng_seed=3)
        np.testing.assert_array_equal(a, b)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            setcl.build_index_matrix(0, 1, rng_seed=0)


class TestBuildSets:
    @pytest.mark.parametrize("B,K,S", [(200, 4, 8), (5, 2, 1), (7, 3, 4),
                                       (1, 1, 1), (12, 12, 2), (9, 4, 3)])
    def test_set_count(self, B, K, S):
        M = setcl.build_index_matrix(B, S, rng_seed=1)
        sets = setcl.build_sets(M, K)
        assert len(sets) == S * (B // K)

    def test_tail_dropped(self):
        M = np.array([[0, 1, 2, 3, 4]])
        sets = setcl.build_sets(M, 2)
        assert sets.tolist() == [[0, 1], [2, 3]]

    def test_k1_singletons(self):
        M = setcl.build_index_matrix(3, 2, rng_seed=0)
        sets = setcl.build_sets(M, 1)
        assert len(sets) == 6
        assert sets.shape == (6, 1)

    def test_k_exceeds_b(self):
        with pytest.raises(ValueError):
            setcl.build_sets(np.array([[0, 1]]), 3)

    def test_sets_stay_within_rows(self):
        M = setcl.build_index_matrix(8, 3, rng_seed=2)
        for n, members in enumerate(setcl.build_sets(M, 4)):  # 8 // 4 sets per row
            assert set(members.tolist()) <= set(M[n // 2].tolist())

    def test_row_order_matches_per_row_blocks(self):
        M = setcl.build_index_matrix(11, 3, rng_seed=5)
        expect = [M[s, j * 3:(j + 1) * 3].tolist() for s in range(3) for j in range(11 // 3)]
        sets = setcl.build_sets(M, 3)
        assert sets.tolist() == expect
        assert setcl.members_matrix(sets).dtype == np.int64


class TestSetRepresentations:
    def test_pooling_defaults(self):
        Z = np.array([[1.0, 0.0], [0.0, 1.0]])
        rep = set_representations([0, 1], Z, Z + 1, Z - 2)
        np.testing.assert_allclose(rep.s_phi_minus, [1.0, 1.0])
        np.testing.assert_allclose(rep.s_phi_plus, [0.0, 0.0])
        np.testing.assert_allclose(rep.s_plus, [1.0, 1.0])
        np.testing.assert_allclose(rep.s_minus, [-1.0, -1.0])

    def test_singleton_equals_member(self):
        rng = np.random.default_rng(0)
        Z, Zp, Zm = (rng.standard_normal((3, 4)) for _ in range(3))
        rep = set_representations([2], Z, Zp, Zm, "mean", "sum")
        np.testing.assert_allclose(rep.s_phi_plus, Z[2])
        np.testing.assert_allclose(rep.s_minus, Zm[2])

    def test_missing_member_vector(self):
        with pytest.raises(ValueError):
            set_representations([5], np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)))


def reps_from_views(Z, Zp, Zm, members, **kw):
    return [set_representations(m, Z, Zp, Zm, **kw) for m in members]


class TestSetwiseInfonce:
    def test_single_set_zero(self):
        rep = SetRepresentation(
            s_phi_minus=np.array([1.0, 0.0]), s_phi_plus=np.array([0.5, 0.5]),
            s_minus=np.array([0.0, 1.0]), s_plus=np.array([0.5, 0.5]))
        assert setwise_infonce([rep], tau=0.2) == pytest.approx(0.0)

    def test_two_set_closed_form(self):
        # f_pos = 5 for both sets, cross-set f_neg = 0:
        # loss = 2 * log(1 + e^-5)
        tau = 0.2
        e1, e2, e3, e4 = np.eye(4)
        reps = [
            SetRepresentation(s_phi_minus=e1, s_phi_plus=e1, s_minus=e3, s_plus=e1),
            SetRepresentation(s_phi_minus=e2, s_phi_plus=e2, s_minus=e4, s_plus=e2),
        ]
        expect = 2 * math.log(1 + math.exp(-5.0))
        assert setwise_infonce(reps, tau) == pytest.approx(expect, rel=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(4)
        Z, Zp, Zm = (rng.standard_normal((12, 5)) for _ in range(3))
        members = setcl.members_matrix(
            setcl.build_sets(setcl.build_index_matrix(12, 2, rng_seed=1), 3))
        loss, *_ = setcl.infonce_with_grads(Z, Zp, Zm, members, tau=0.2)
        assert loss >= 0.0

    def test_zero_norm_pooled_vector_raises(self):
        reps = [SetRepresentation(
            s_phi_minus=np.zeros(2), s_phi_plus=np.ones(2),
            s_minus=np.ones(2), s_plus=np.ones(2))] * 2
        with pytest.raises(NumericError):
            setwise_infonce(reps, tau=0.2)

    def test_monotone_in_positive_similarity(self):
        rng = np.random.default_rng(5)
        Z, Zp, Zm = (rng.standard_normal((8, 4)) for _ in range(3))
        members = setcl.members_matrix(
            setcl.build_sets(setcl.build_index_matrix(8, 1, rng_seed=0), 2))
        reps = reps_from_views(Z, Zp, Zm, members)
        base = setwise_infonce(reps, tau=0.2)
        # raising one set's positive cosine toward its anchor lowers the loss
        reps[0].s_plus = reps[0].s_phi_plus.copy()
        assert setwise_infonce(reps, tau=0.2) < base

    def test_monotone_in_negative_similarity(self):
        rng = np.random.default_rng(6)
        Z, Zp, Zm = (rng.standard_normal((8, 4)) for _ in range(3))
        members = setcl.members_matrix(
            setcl.build_sets(setcl.build_index_matrix(8, 1, rng_seed=0), 2))
        reps = reps_from_views(Z, Zp, Zm, members)
        base = setwise_infonce(reps, tau=0.2)
        # aligning another set's negative view with set 0's anchor raises it
        reps[1].s_minus = reps[0].s_phi_minus.copy()
        assert setwise_infonce(reps, tau=0.2) > base

    def test_own_negative_excluded_by_default(self):
        rng = np.random.default_rng(7)
        Z, Zp, Zm = (rng.standard_normal((4, 3)) for _ in range(3))
        members = setcl.members_matrix(
            setcl.build_sets(setcl.build_index_matrix(4, 1, rng_seed=0), 2))
        reps = reps_from_views(Z, Zp, Zm, members)
        excl = setwise_infonce(reps, tau=0.2, include_own_negative=False)
        incl = setwise_infonce(reps, tau=0.2, include_own_negative=True)
        assert incl > excl  # extra denominator term can only raise the loss


class TestInstanceWiseReduction:
    def instancewise_oracle(self, Z, Zp, Zm, tau):
        """Direct instance-level InfoNCE with the same anchor convention."""
        B = Z.shape[0]
        total = 0.0
        for i in range(B):
            f_pos = float(Z[i] @ Zp[i] / (np.linalg.norm(Z[i]) * np.linalg.norm(Zp[i]) * tau))
            negs = [float(Z[i] @ Zm[q] / (np.linalg.norm(Z[i]) * np.linalg.norm(Zm[q]) * tau))
                    for q in range(B) if q != i]
            denom = math.exp(f_pos) + sum(math.exp(f) for f in negs)
            total += -math.log(math.exp(f_pos) / denom)
        return total

    def test_k1_s1_matches_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            Z, Zp, Zm = (rng.standard_normal((6, 4)) for _ in range(3))
            members = setcl.members_matrix(
                setcl.build_sets(setcl.build_index_matrix(6, 1, rng_seed=0), 1))
            loss, *_ = setcl.infonce_with_grads(Z, Zp, Zm, members, tau=0.2)
            assert loss == pytest.approx(self.instancewise_oracle(Z, Zp, Zm, 0.2),
                                         abs=1e-10)


POOL_PAIRS = [(p, n) for p in setcl.POOL_MODES for n in setcl.POOL_MODES]


def random_batch(rng, B, T, K, S, rounded=False):
    Z, Zp, Zm = (rng.standard_normal((B, T)) for _ in range(3))
    if rounded:  # many exact ties among set members
        Z, Zp, Zm = np.round(Z), np.round(Zp), np.round(Zm)
    members = setcl.members_matrix(
        setcl.build_sets(setcl.build_index_matrix(B, S, rng_seed=rng), K))
    return Z, Zp, Zm, members


def bits_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestGradients:
    @pytest.mark.parametrize("pool_pos,pool_neg", [("min", "max"), ("mean", "sum")])
    def test_grads_match_fd(self, pool_pos, pool_neg):
        rng = np.random.default_rng(9)
        B, T, K, S = 9, 5, 3, 2
        Z, Zp, Zm = (rng.standard_normal((B, T)) for _ in range(3))
        members = setcl.members_matrix(
            setcl.build_sets(setcl.build_index_matrix(B, S, rng_seed=2), K))
        loss, dZ, dZp, dZm = setcl.infonce_with_grads(
            Z, Zp, Zm, members, tau=0.2, pool_positive=pool_pos, pool_negative=pool_neg)
        h = 1e-6
        for view, grad in ((Z, dZ), (Zp, dZp), (Zm, dZm)):
            flat = view.ravel()
            for i in rng.choice(flat.size, size=12, replace=False):
                orig = flat[i]
                flat[i] = orig + h
                lp, *_ = setcl.infonce_with_grads(
                    Z, Zp, Zm, members, tau=0.2, want_grads=False,
                    pool_positive=pool_pos, pool_negative=pool_neg)
                flat[i] = orig - h
                lm, *_ = setcl.infonce_with_grads(
                    Z, Zp, Zm, members, tau=0.2, want_grads=False,
                    pool_positive=pool_pos, pool_negative=pool_neg)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                a = grad.ravel()[i]
                assert abs(a - fd) / max(1e-8, abs(a) + abs(fd)) < 1e-4

    @pytest.mark.parametrize("pool_pos,pool_neg", POOL_PAIRS)
    def test_grads_match_per_set_oracle(self, pool_pos, pool_neg):
        rng = np.random.default_rng(12)
        for include_own_negative in (False, True):
            Z, Zp, Zm, members = random_batch(rng, 10, 5, 3, 3)
            _, *grads = setcl.infonce_with_grads(
                Z, Zp, Zm, members, tau=0.2, pool_positive=pool_pos, pool_negative=pool_neg,
                include_own_negative=include_own_negative)
            expect = oracles.setwise_infonce_grads(Z, Zp, Zm, members, 0.2, pool_pos,
                                                   pool_neg, include_own_negative)
            for got, ref in zip(grads, expect):
                np.testing.assert_allclose(got, ref, rtol=1e-10,
                                           atol=1e-10 * np.abs(ref).max())

    def test_entry_points_agree(self):
        rng = np.random.default_rng(10)
        Z, Zp, Zm = (rng.standard_normal((8, 4)) for _ in range(3))
        members = setcl.members_matrix(
            setcl.build_sets(setcl.build_index_matrix(8, 2, rng_seed=1), 2))
        loss_fast, *_ = setcl.infonce_with_grads(Z, Zp, Zm, members, tau=0.3)
        loss_ref = setwise_infonce(reps_from_views(Z, Zp, Zm, members), tau=0.3)
        assert loss_fast == pytest.approx(loss_ref, rel=1e-12)


class TestRouting:
    @pytest.mark.parametrize("pool_pos,pool_neg", POOL_PAIRS)
    def test_routing_matches_per_mode_oracle(self, monkeypatch, pool_pos, pool_neg):
        # fixed pooled gradients: only the routing back to the batch rows is tested
        rng = np.random.default_rng(11)
        fixed = []

        def stub(*args):  # the four pooled arrays, then tau and two flags
            fixed[:] = [rng.standard_normal(pooled.shape) for pooled in args[:4]]
            return 0.0, tuple(fixed)

        monkeypatch.setattr(setcl, "_loss_from_pooled", stub)
        for B, T, K, S, rounded in ((9, 5, 3, 2, False), (9, 5, 3, 2, True),
                                    (6, 4, 1, 3, True), (6, 4, 6, 3, True),
                                    (7, 3, 7, 1, False)):
            Z, Zp, Zm, members = random_batch(rng, B, T, K, S, rounded)
            _, dZ, dZp, dZm = setcl.infonce_with_grads(
                Z, Zp, Zm, members, tau=0.2, pool_positive=pool_pos, pool_negative=pool_neg)
            expect = [np.zeros_like(Z), np.zeros_like(Zp), np.zeros_like(Zm)]
            for (view, out), mode, dS in zip(((Z, 0), (Z, 0), (Zm, 2), (Zp, 1)),
                                             (pool_neg, pool_pos, pool_neg, pool_pos), fixed):
                _, arg = oracles.pool_members(view[members], mode)
                oracles.route_back(expect[out], members, arg, dS, mode)
            for got, ref in zip((dZ, dZp, dZm), expect):
                assert bits_equal(got, ref)
