"""Numeric kernels beyond conv: pooling, norms, activations, embedding."""

import numpy as np
import pytest

from repro.kernels import nn as K
from tests.conftest import numeric_gradient


class TestPooling:
    def test_maxpool_forward(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        out = K.maxpool2d_forward(x, (2, 2))
        assert out.shape == (2, 3, 4, 4)
        assert out[0, 0, 0, 0] == x[0, 0, :2, :2].max()

    def test_maxpool_with_padding_ignores_pad_values(self, rng):
        x = -np.abs(rng.standard_normal((1, 1, 4, 4))) - 1.0  # all negative
        out = K.maxpool2d_forward(x, (3, 3), (1, 1), (1, 1))
        # padded -inf must never win
        assert np.isfinite(out).all()

    def test_maxpool_backward_numeric(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        out = K.maxpool2d_forward(x, (2, 2))
        grad_out = rng.standard_normal(out.shape)
        got = K.maxpool2d_backward(grad_out, x, out, (2, 2))
        want = numeric_gradient(lambda: K.maxpool2d_forward(x, (2, 2)),
                                x, grad_out)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_avgpool_forward_backward(self, rng):
        x = rng.standard_normal((2, 2, 6, 6))
        out = K.avgpool2d_forward(x, (3, 3))
        assert out.shape == (2, 2, 2, 2)
        np.testing.assert_allclose(out[0, 0, 0, 0], x[0, 0, :3, :3].mean())
        grad_out = rng.standard_normal(out.shape)
        got = K.avgpool2d_backward(grad_out, x.shape, (3, 3))
        want = numeric_gradient(lambda: K.avgpool2d_forward(x, (3, 3)),
                                x, grad_out)
        np.testing.assert_allclose(got, want, atol=1e-6)


class TestBatchNorm:
    def test_training_normalizes(self, rng):
        x = rng.standard_normal((8, 4, 5, 5)) * 3 + 2
        gamma, beta = np.ones(4), np.zeros(4)
        rm, rv = np.zeros(4), np.ones(4)
        out, _, new_rm, new_rv = K.batch_norm_forward(
            x, gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1, atol=1e-3)
        assert not np.allclose(new_rm, rm)

    def test_training_matches_mean_and_var_bit_for_bit(self, rng):
        x = rng.standard_normal((4, 32, 8, 8)) * 3 + 2
        gamma, beta = rng.standard_normal(32), rng.standard_normal(32)
        out, (xhat, _, _), _, new_rv = K.batch_norm_forward(
            x, gamma, beta, np.zeros(32), np.ones(32), training=True)
        shape = (1, -1, 1, 1)
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        want = (x - mean.reshape(shape)) \
            * (1.0 / np.sqrt(var + 1e-5)).reshape(shape)
        np.testing.assert_array_equal(xhat, want)
        np.testing.assert_array_equal(
            out, gamma.reshape(shape) * want + beta.reshape(shape))
        np.testing.assert_array_equal(new_rv, 1 - 0.1 + var * 0.1)

    def test_eval_uses_running_stats(self, rng):
        x = rng.standard_normal((4, 3, 4, 4))
        rm = np.array([1.0, 2.0, 3.0])
        rv = np.array([4.0, 4.0, 4.0])
        out, _, nrm, nrv = K.batch_norm_forward(
            x, np.ones(3), np.zeros(3), rm, rv, training=False)
        expected = (x - rm.reshape(1, 3, 1, 1)) / 2.0
        np.testing.assert_allclose(out, expected, atol=1e-3)
        np.testing.assert_array_equal(nrm, rm)

    def test_backward_numeric_training(self, rng):
        x = rng.standard_normal((4, 2, 3, 3))
        gamma = rng.standard_normal(2)
        beta = rng.standard_normal(2)
        rm, rv = np.zeros(2), np.ones(2)

        def forward():
            out, _, _, _ = K.batch_norm_forward(
                x, gamma, beta, rm.copy(), rv.copy(), training=True)
            return out

        out, cache, _, _ = K.batch_norm_forward(
            x, gamma, beta, rm.copy(), rv.copy(), training=True)
        grad_out = rng.standard_normal(out.shape)
        dx, dgamma, dbeta = K.batch_norm_backward(grad_out, cache, training=True)
        np.testing.assert_allclose(dx, numeric_gradient(forward, x, grad_out),
                                   atol=1e-4)
        np.testing.assert_allclose(
            dgamma, numeric_gradient(forward, gamma, grad_out), atol=1e-4)
        np.testing.assert_allclose(
            dbeta, numeric_gradient(forward, beta, grad_out), atol=1e-4)


class TestLayerNorm:
    def test_forward_normalizes_last_dim(self, rng):
        x = rng.standard_normal((3, 5, 8)) * 4 + 1
        out, _ = K.layer_norm_forward(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(out.mean(axis=-1), 0, atol=1e-10)

    def test_backward_numeric(self, rng):
        x = rng.standard_normal((2, 3, 6))
        gamma = rng.standard_normal(6)
        beta = rng.standard_normal(6)

        def forward():
            return K.layer_norm_forward(x, gamma, beta)[0]

        out, cache = K.layer_norm_forward(x, gamma, beta)
        grad_out = rng.standard_normal(out.shape)
        dx, dgamma, dbeta = K.layer_norm_backward(grad_out, cache)
        np.testing.assert_allclose(dx, numeric_gradient(forward, x, grad_out),
                                   atol=1e-4)
        np.testing.assert_allclose(
            dgamma, numeric_gradient(forward, gamma, grad_out), atol=1e-4)
        np.testing.assert_allclose(
            dbeta, numeric_gradient(forward, beta, grad_out), atol=1e-4)


class TestActivations:
    @pytest.mark.parametrize("fwd,bwd,uses_output", [
        (K.relu, K.relu_backward, False),
        (K.gelu, K.gelu_backward, False),
        (K.sigmoid, K.sigmoid_backward, True),
    ])
    def test_backward_numeric(self, rng, fwd, bwd, uses_output):
        x = rng.standard_normal((4, 5)) + 0.05  # avoid relu kink at 0
        out = fwd(x)
        grad_out = rng.standard_normal(out.shape)
        got = bwd(grad_out, out if uses_output else x)
        want = numeric_gradient(lambda: fwd(x), x, grad_out)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.standard_normal((3, 7))
        out = K.softmax(x)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0)
        assert (out > 0).all()

    def test_softmax_backward_numeric(self, rng):
        x = rng.standard_normal((2, 5))
        out = K.softmax(x)
        grad_out = rng.standard_normal(out.shape)
        got = K.softmax_backward(grad_out, out)
        want = numeric_gradient(lambda: K.softmax(x), x, grad_out)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_log_softmax_backward_numeric(self, rng):
        x = rng.standard_normal((2, 5))
        out = K.log_softmax(x)
        grad_out = rng.standard_normal(out.shape)
        got = K.log_softmax_backward(grad_out, out)
        want = numeric_gradient(lambda: K.log_softmax(x), x, grad_out)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_softmax_shift_invariance(self, rng):
        x = rng.standard_normal((2, 4))
        np.testing.assert_allclose(K.softmax(x), K.softmax(x + 100.0),
                                   atol=1e-12)


class TestEmbedding:
    def test_forward_gathers_rows(self, rng):
        weight = rng.standard_normal((10, 4))
        indices = np.array([[1, 3], [0, 9]])
        out = K.embedding_forward(indices, weight)
        np.testing.assert_array_equal(out[0, 1], weight[3])

    def test_backward_scatter_adds_duplicates(self, rng):
        grad_out = np.ones((1, 3, 4))
        indices = np.array([[2, 2, 5]])
        grad_w = K.embedding_backward(grad_out, indices, vocab_size=10)
        np.testing.assert_allclose(grad_w[2], 2 * np.ones(4))
        np.testing.assert_allclose(grad_w[5], np.ones(4))
        np.testing.assert_allclose(grad_w[0], np.zeros(4))
