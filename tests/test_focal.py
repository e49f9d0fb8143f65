"""Modulated frame loss: values, analytic gradients, sequence reduction."""

import math

import numpy as np
import pytest

from chordbalance.focal import (
    PROB_FLOOR,
    clamp_count,
    frame_losses,
    reset_clamp_count,
    sequence_loss,
)
from chordbalance.student import TrainParams

from oracles import fd_gradient, loss_and_logit_grad

GAMMAS = (0.0, 1.0, 2.0, 5.0)


def softmax(z):
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


def frame_loss(p_t, gamma):
    """Loss of one two-class frame whose true class has probability ``p_t``."""
    return loss_and_logit_grad(np.array([[p_t, 1.0 - p_t]]), np.array([0]), gamma)[0]


def frame_grad(logits, target, gamma):
    """Logit gradient of one frame's loss."""
    return loss_and_logit_grad(softmax(logits)[None, :], np.array([target]), gamma)[1][0]


class TestFocalLoss:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_perfect_prediction_is_free(self, gamma):
        assert frame_loss(1.0, gamma) == 0.0

    def test_gamma_zero_is_cross_entropy(self):
        assert frame_loss(0.5, 0.0) == pytest.approx(math.log(2), rel=1e-12)
        for p in np.geomspace(1e-6, 1.0, 200):
            assert abs(frame_loss(float(p), 0.0) - (-math.log(p))) <= 1e-12

    def test_modulated_value(self):
        # (1 - 0.9)^2 * (-ln 0.9)
        expected = 0.1**2 * -math.log(0.9)
        assert frame_loss(0.9, 2.0) == pytest.approx(expected, rel=1e-12)
        assert frame_loss(0.9, 2.0) == pytest.approx(1.0536e-3, rel=1e-3)

    def test_monotone_decreasing_in_confidence(self):
        for gamma in GAMMAS:
            ps = np.linspace(0.01, 0.999, 150)
            losses = [frame_loss(float(p), gamma) for p in ps]
            assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_higher_gamma_shrinks_loss(self):
        for p in np.linspace(0.01, 0.99, 50):
            assert frame_loss(float(p), 5.0) < frame_loss(float(p), 2.0) < frame_loss(float(p), 0.0)

    def test_nonpositive_probability_clamped_and_counted(self):
        value, _, clamps = loss_and_logit_grad(np.array([[0.0, 1.0]]), np.array([0]), 0.0)
        assert value == pytest.approx(-math.log(PROB_FLOOR), rel=1e-12)
        value, _, more = loss_and_logit_grad(np.array([[-0.25, 1.25]]), np.array([0]), 2.0)
        assert math.isfinite(value)
        assert clamps + more == 2

    def test_rejects_probability_above_one(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            sequence_loss(np.array([[1.5, -0.5]]), np.array([0]), 2.0)


class TestFocalParams:
    """Loss settings, validated by TrainParams where they enter."""

    def test_defaults(self):
        params = TrainParams()
        assert params.gamma == 2.0
        assert params.class_weights is None
        assert PROB_FLOOR == 1e-12

    @pytest.mark.parametrize("gamma", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            TrainParams(loss="focal", gamma=gamma)

    def test_rejects_bad_class_weights(self):
        for weight in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="class weight"):
                TrainParams(class_weights={"maj": 1.0, "dim": weight})
        assert TrainParams(class_weights={"maj": 0.0, "dim": 8.0}).class_weights["dim"] == 8.0
        for key in ("hdim", "Dim", "hdim7 ", "X", "C:maj", ""):
            with pytest.raises(ValueError, match=f"class weight for unknown class {key!r}"):
                TrainParams(class_weights={"maj": 1.0, key: 2.0})
        # Every chord class but X weights model classes, N included.
        keys = ("maj", "min", "7", "min7", "maj7", "dim", "hdim7", "aug", "sus", "N")
        assert set(TrainParams(class_weights=dict.fromkeys(keys, 2.0)).class_weights) == set(keys)


class TestGradient:
    def test_gamma_zero_matches_cross_entropy_form(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.normal(0, 2, 11)
            target = int(rng.integers(11))
            onehot = np.zeros(11)
            onehot[target] = 1.0
            np.testing.assert_allclose(frame_grad(z, target, 0.0), softmax(z) - onehot, atol=1e-12)

    def test_vanishes_at_confident_correct(self):
        z = np.array([30.0, 0.0, 0.0])
        grad = frame_grad(z, 0, 2.0)
        assert np.abs(grad).max() < 1e-10

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_matches_finite_differences(self, gamma):
        rng = np.random.default_rng(17)
        for _ in range(40):
            z = rng.normal(0, 2, 7)
            target = int(rng.integers(7))

            def loss_of(logits):
                return loss_and_logit_grad(softmax(logits)[None, :], np.array([target]), gamma)[0]

            analytic = frame_grad(z, target, gamma)
            numeric = fd_gradient(loss_of, z)
            denom = max(float(np.linalg.norm(numeric)), 1e-8)
            assert float(np.linalg.norm(analytic - numeric)) / denom < 1e-5

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_weighted_batch_matches_finite_differences(self, gamma):
        rng = np.random.default_rng(31)
        n, k = 6, 5
        z = rng.normal(0.0, 1.5, (n, k))
        y = rng.integers(k, size=n)
        weights = rng.uniform(0.2, 3.0, n)
        z[0, y[0]] = z[0].max() - 40.0  # p_t ~ 1e-18, below the floor

        def loss_of(flat):
            return loss_and_logit_grad(softmax(flat.reshape(n, k)), y, gamma, weights)[0]

        probs = softmax(z)
        _, grad, clamps = loss_and_logit_grad(probs.copy(), y, gamma, weights)
        assert clamps == 1
        analytic = grad / n
        numeric = fd_gradient(loss_of, z.ravel()).reshape(n, k)
        # The clamped frame's loss is flat at the floor, so its finite
        # difference is 0; its analytic row keeps the pull of the
        # unclamped loss toward the true class.
        assert np.all(numeric[0] == 0.0)
        pull = weights[0] * (probs[0] - np.eye(k)[y[0]]) / n
        np.testing.assert_allclose(analytic[0], pull, rtol=1e-9)
        rel = np.linalg.norm(analytic[1:] - numeric[1:]) / np.linalg.norm(numeric[1:])
        assert rel < 1e-5

    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_gradient_overwrites_probs(self, gamma, weighted):
        rng = np.random.default_rng(8)
        n, k = 9, 6
        probs = softmax(rng.normal(0.0, 2.0, (n, k)))
        y = rng.integers(k, size=n)
        weights = rng.uniform(0.2, 3.0, n) if weighted else np.ones(n)
        # Out-of-place gradient from a saved copy: w * factor * (onehot - p),
        # with factor = p_t * d FL / d p_t (-1 for cross-entropy).
        p = probs.copy()
        p_t = p[np.arange(n), y]
        factor = gamma * p_t * (1.0 - p_t) ** (gamma - 1.0) * np.log(p_t) - (1.0 - p_t) ** gamma
        expected = (weights * factor)[:, None] * (np.eye(k)[y] - p)
        expected_loss = float(np.mean(weights * (1.0 - p_t) ** gamma * -np.log(p_t)))
        loss, grad, _ = loss_and_logit_grad(probs, y, gamma, weights if weighted else None)
        assert grad is probs
        assert loss == pytest.approx(expected_loss, rel=1e-12)
        np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-15)

    @staticmethod
    def _block(dtype, seed=12):
        """A training-sized block of softmax rows, targets and frame weights;
        the first rows' true-class probabilities lie below the floor."""
        rng = np.random.default_rng(seed)
        n, k = 2048, 109
        z = rng.normal(0.0, 3.0, (n, k))
        y = rng.integers(k, size=n)
        z[np.arange(16), y[:16]] -= 60.0
        probs = softmax(z).astype(dtype)
        return probs, y, rng.uniform(0.2, 3.0, n).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("gamma", [1.0, 2.0, 5.0])
    def test_one_pass_gradient_matches_three_passes(self, dtype, gamma):
        # Reference: negate every entry, add 1 at the target, scale by the factor.
        probs, y, weights = self._block(dtype)
        rows = np.arange(len(y))
        p_t = np.clip(probs[rows, y], PROB_FLOOR, 1.0)
        u = 1.0 - p_t
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = gamma * p_t * u ** (gamma - 1.0) * np.log(p_t) - u ** gamma
        expected = -probs
        expected[rows, y] += 1.0
        expected *= np.where(u > 0, factor, 0.0)[:, None]
        expected *= weights[:, None]
        grad = probs.copy()
        frame_losses(grad, y, gamma, weights, np.empty(len(y), dtype), grad=True)
        assert np.array_equal(grad, expected)

    def test_float32_rows_stay_float32(self):
        probs, y, weights = self._block(np.float32)

        def run(rows, gamma, weights):
            out = np.empty(len(y), rows.dtype)
            grad = rows.copy()
            frame_losses(grad, y, gamma, weights, out, grad=True)
            return out, grad

        out, grad = run(probs, 2.0, weights)
        wide_out, wide_grad = run(probs.astype(np.float64), 2.0, weights.astype(np.float64))
        # float32 arithmetic, not float64 arithmetic rounded at the end
        assert not np.array_equal(out, wide_out.astype(np.float32))
        assert not np.array_equal(grad, wide_grad.astype(np.float32))
        np.testing.assert_allclose(out, wide_out, rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(grad, wide_grad, rtol=1e-4, atol=1e-6)
        # a NumPy float64 gamma does not widen any step
        numpy_out, numpy_grad = run(probs, np.float64(2.0), weights)
        assert np.array_equal(numpy_out, out) and np.array_equal(numpy_grad, grad)
        loss, batch_grad, _ = loss_and_logit_grad(probs.copy(), y, 2.0, weights)
        assert batch_grad.dtype == np.float32
        assert loss == float(out.mean(dtype=np.float64))


class TestFocalScalars:
    """The per-frame factor ``p_t * d FL / d p_t`` that scales ``onehot - p``."""

    def test_gamma_zero_is_constant(self):
        # cross-entropy: the target entry of the gradient is p_t - 1
        for p in (0.1, 0.5, 0.9):
            grad = loss_and_logit_grad(np.array([[p, 1.0 - p]]), np.array([0]), 0.0)[1]
            assert grad[0, 0] / (1.0 - p) == pytest.approx(-1.0, rel=1e-12)

    def test_zero_at_certainty(self):
        for gamma in (2.0, 5.0):
            grad = loss_and_logit_grad(np.array([[1.0, 0.0]]), np.array([0]), gamma)[1]
            assert np.all(grad == 0.0)

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 5.0])
    def test_matches_scaled_derivative(self, gamma):
        # factor is defined as p * dFL/dp; check against central differences
        h = 1e-7
        for p in np.linspace(0.05, 0.95, 25):
            numeric = (frame_loss(p + h, gamma) - frame_loss(p - h, gamma)) / (2 * h)
            grad = loss_and_logit_grad(np.array([[p, 1.0 - p]]), np.array([0]), gamma)[1]
            factor = grad[0, 0] / (1.0 - p)
            assert factor == pytest.approx(p * numeric, rel=1e-5)


class TestSequenceLoss:
    def test_perfect_frames(self):
        frames = np.eye(4)[[0, 2, 3]]
        assert sequence_loss(frames, np.array([0, 2, 3]), 2.0) == 0.0

    def test_gamma_zero_is_mean_cross_entropy(self):
        rng = np.random.default_rng(23)
        frames = rng.dirichlet(np.ones(5), size=12)
        targets = rng.integers(5, size=12)
        got = sequence_loss(frames, targets, 0.0)
        expected = float(-np.log(frames[np.arange(12), targets]).mean())
        assert got == pytest.approx(expected, rel=1e-12)

    def test_two_frame_example(self):
        frames = np.array([[0.5, 0.5], [0.9, 0.1]])
        targets = np.array([0, 0])
        got = sequence_loss(frames, targets, 2.0)
        expected = (0.25 * math.log(2) + 0.01 * -math.log(0.9)) / 2
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.08717, abs=5e-6)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(29)
        frames = rng.dirichlet(np.ones(6), size=40)
        targets = rng.integers(6, size=40)
        order = rng.permutation(40)
        base = sequence_loss(frames, targets, 2.0)
        shuffled = sequence_loss(frames[order], targets[order], 2.0)
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_class_weights_scale_frames(self):
        frames = np.array([[0.5, 0.5], [0.5, 0.5]])
        targets = np.array([0, 1])
        weights = np.array([2.0, 0.0])
        got = sequence_loss(frames, targets, 0.0, class_weight_vector=weights)
        assert got == pytest.approx(math.log(2), rel=1e-12)  # (2*ln2 + 0)/2

    def test_clamps_zero_probability_frames(self):
        reset_clamp_count()
        assert clamp_count() == 0
        frames = np.array([[0.0, 1.0]])
        sequence_loss(frames, np.array([0]), 0.0)
        assert clamp_count() == 1
        reset_clamp_count()

    @pytest.mark.parametrize(
        "frames,targets",
        [
            (np.ones((2, 3)) / 3, np.array([0])),
            (np.ones(3) / 3, np.array([0])),
            (np.empty((0, 3)), np.empty(0, dtype=int)),
            (np.array([[0.7, 0.2]]), np.array([0])),
            (np.ones((1, 3)) / 3, np.array([3])),
        ],
    )
    def test_rejects_malformed_input(self, frames, targets):
        with pytest.raises(ValueError):
            sequence_loss(frames, targets, 2.0)
