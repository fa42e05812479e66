import numpy as np
import numpy.testing as npt
import pytest

from wavecnn.optim import Adam, NonFiniteGradient, glorot_init, l2_penalty
from wavecnn.tensor import NonFiniteError


class TestGlorot:
    def test_limit_is_one_for_fans_2_and_4(self):
        # sqrt(6 / (2 + 4)) == 1
        values = glorot_init((1000,), 2, 4, np.random.default_rng(0))
        assert np.all(values > -1.0) and np.all(values < 1.0)
        assert np.abs(values).max() > 0.5  # actually spans the range

    def test_sample_variance_matches_uniform_moment(self):
        # var of U(-L, L) is L^2 / 3
        fan_in, fan_out = 30, 50
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        values = glorot_init((100_000,), fan_in, fan_out, np.random.default_rng(1))
        expected = limit ** 2 / 3.0
        assert values.var() == pytest.approx(expected, rel=0.05)

    def test_fixed_seed_reproduces_tensor(self):
        a = glorot_init((4, 5), 20, 20, np.random.default_rng(42))
        b = glorot_init((4, 5), 20, 20, np.random.default_rng(42))
        assert a.tobytes() == b.tobytes()

    def test_invalid_fans_rejected(self):
        with pytest.raises(ValueError):
            glorot_init((2,), 0, 4, np.random.default_rng(0))


class TestAdam:
    def test_zero_gradient_leaves_parameter_fixed(self):
        p = np.array([1.5, -2.25], dtype=np.float32)
        before = p.tobytes()
        opt = Adam([p])
        for _ in range(25):
            opt.step([np.zeros_like(p)])
        assert p.tobytes() == before

    def test_single_step_hand_computed(self):
        # g=1, defaults: m=0.1, v=0.001, m_hat=1, v_hat=1
        # -> update = -lr * 1 / (1 + eps) ~ -0.001
        p = np.zeros(1)
        opt = Adam([p], lr=0.001)
        opt.step([np.ones(1)])
        assert p[0] == pytest.approx(-0.001, abs=1e-9)

    def test_two_steps_match_hand_recursion(self):
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        g = 0.7
        p_hand, m, v = 0.0, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p_hand -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        p = np.zeros(1)
        opt = Adam([p], lr=lr)
        opt.step([np.full(1, g)])
        opt.step([np.full(1, g)])
        assert p[0] == pytest.approx(p_hand, abs=1e-9)

    def test_update_magnitude_bounded_early(self):
        rng = np.random.default_rng(2)
        p = rng.standard_normal(64)
        opt = Adam([p], lr=0.001)
        for step in range(10):
            before = p.copy()
            opt.step([rng.uniform(-1.0, 1.0, size=64)])
            assert np.abs(p - before).max() <= 2 * 0.001

    def test_non_finite_gradient_names_parameter(self):
        p = np.zeros(3)
        opt = Adam([p])
        bad = np.array([0.0, np.inf, 0.0])
        with pytest.raises(NonFiniteGradient, match="conv3.weight"):
            opt.step([bad], names=["conv3.weight"])

    def test_step_that_overflows_a_parameter_names_it(self):
        params = [np.ones(3, dtype=np.float32), np.ones(2, dtype=np.float32)]
        opt = Adam(params, lr=1e38)  # lr / (1 - beta1) overflows float32
        with pytest.raises(NonFiniteError,
                           match=r"^non-finite values in conv3\.weight after the Adam step$"):
            opt.step([np.ones(3), np.ones(2)], names=["conv3.weight", "conv3.bias"])

    def test_finite_gradient_whose_moments_overflow_names_parameter(self):
        p = np.ones(3, dtype=np.float32)
        opt = Adam([p])
        g = np.full(3, 1e20, dtype=np.float32)  # finite, but g**2 overflows float32
        with pytest.raises(NonFiniteError, match=r"^non-finite Adam moments in conv3\.weight$"):
            opt.step([g], names=["conv3.weight"])
        npt.assert_array_equal(p, 1.0)

    def test_moment_shapes_mirror_parameters(self):
        params = [np.zeros((2, 3)), np.zeros(5)]
        opt = Adam(params)
        assert [m.shape for m in opt.m] == [(2, 3), (5,)]
        assert [v.shape for v in opt.v] == [(2, 3), (5,)]


class TestL2Penalty:
    def test_zero_lambda(self):
        loss, grads = l2_penalty([np.array([3.0])], 0.0)
        assert loss == 0.0
        npt.assert_array_equal(grads[0], [0.0])

    def test_single_weight_arithmetic(self):
        loss, grads = l2_penalty([np.array([3.0])], 0.0001)
        assert loss == pytest.approx(0.0009)
        assert grads[0][0] == pytest.approx(0.0006)

    def test_invariant_under_reshape(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 6))
        flat_loss, _ = l2_penalty([w.reshape(-1)], 0.01)
        square_loss, _ = l2_penalty([w], 0.01)
        assert flat_loss == pytest.approx(square_loss, rel=1e-12)

    def test_nonnegative_and_zero_iff_all_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.standard_normal(8) * rng.choice([0.0, 1.0])
            loss, _ = l2_penalty([w], 0.5)
            assert loss >= 0.0
            assert (loss == 0.0) == (not w.any())

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            l2_penalty([np.ones(2)], -0.1)
