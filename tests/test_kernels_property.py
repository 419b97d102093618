"""Hypothesis property tests over the numeric kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import nn as K


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 4),
    o=st.integers(1, 4),
    h=st.integers(5, 11),
    w=st.integers(5, 11),
    pad=st.integers(0, 2),
    seed=st.integers(0, 10_000),
)
def test_winograd_equals_im2col_everywhere(n, c, o, h, w, pad, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w))
    weight = rng.standard_normal((o, c, 3, 3))
    winograd = K.conv2d_forward(x, weight, (1, 1), (pad, pad),
                                algorithm="winograd")
    im2col = K.conv2d_forward(x, weight, (1, 1), (pad, pad), algorithm="im2col")
    np.testing.assert_allclose(winograd, im2col, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    padding=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    c=st.integers(1, 4),
    o=st.integers(1, 4),
    h=st.integers(5, 12),
    w=st.integers(5, 12),
    seed=st.integers(0, 10_000),
)
def test_fft_equals_im2col(kernel, stride, padding, c, o, h, w, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, c, h, w))
    weight = rng.standard_normal((o, c) + kernel)
    fft = K.conv2d_forward(x, weight, stride, padding, algorithm="fft")
    im2col = K.conv2d_forward(x, weight, stride, padding, algorithm="im2col")
    np.testing.assert_allclose(fft, im2col, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 2),
    c=st.integers(1, 4),
    o=st.integers(1, 4),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)
def test_gemm_1x1_equals_im2col(n, c, o, h, w, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w))
    weight = rng.standard_normal((o, c, 1, 1))
    gemm = K.conv2d_forward(x, weight, (1, 1), (0, 0), algorithm="gemm_1x1")
    im2col = K.conv2d_forward(x, weight, (1, 1), (0, 0), algorithm="im2col")
    np.testing.assert_allclose(gemm, im2col, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    data=st.data(),
    h=st.integers(3, 11),
    w=st.integers(3, 11),
    seed=st.integers(0, 10_000),
)
def test_maxpool_output_is_window_max(kernel, stride, data, h, w, seed):
    # every window keeps at least one real cell
    ph = data.draw(st.integers(0, kernel[0] // 2))
    pw = data.draw(st.integers(0, kernel[1] // 2))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, h, w))
    out = K.maxpool2d_forward(x, kernel, stride, (ph, pw))
    padded = np.full((2, 3, h + 2 * ph, w + 2 * pw), -np.inf)
    padded[:, :, ph:ph + h, pw:pw + w] = x
    oh, ow = out.shape[2], out.shape[3]
    assert (oh, ow) == K.out_hw(h, w, *kernel, stride, (ph, pw))
    for i in range(oh):
        for j in range(ow):
            window = padded[:, :, i * stride[0]:i * stride[0] + kernel[0],
                            j * stride[1]:j * stride[1] + kernel[1]]
            np.testing.assert_array_equal(out[:, :, i, j],
                                          window.max(axis=(2, 3)))


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(2, 6),
    channels=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_batch_norm_training_zero_mean_unit_var(batch, channels, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, channels, 3, 3)) * 5 + 2
    out, _, _, _ = K.batch_norm_forward(
        x, np.ones(channels), np.zeros(channels),
        np.zeros(channels), np.ones(channels), training=True)
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1, atol=1e-2)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(2, 8),
    scale=st.floats(0.1, 50.0),
    seed=st.integers(0, 10_000),
)
def test_softmax_is_probability_distribution(rows, cols, scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols)) * scale
    out = K.softmax(x)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    assert (out >= 0).all()
    # order preserved: argmax of logits == argmax of probabilities
    np.testing.assert_array_equal(np.argmax(x, axis=-1),
                                  np.argmax(out, axis=-1))


@settings(max_examples=30, deadline=None)
@given(
    vocab=st.integers(2, 20),
    dim=st.integers(1, 8),
    count=st.integers(1, 16),
    seed=st.integers(0, 10_000),
)
def test_embedding_backward_row_sums(vocab, dim, count, seed):
    """Each vocab row's gradient equals the sum of grads at its occurrences."""
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, vocab, (1, count))
    grad_out = rng.standard_normal((1, count, dim))
    grad_w = K.embedding_backward(grad_out, indices, vocab)
    for row in range(vocab):
        expected = grad_out[0][indices[0] == row].sum(axis=0) \
            if (indices[0] == row).any() else np.zeros(dim)
        np.testing.assert_allclose(grad_w[row], expected, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    size=st.integers(6, 12),
    kernel=st.integers(2, 3),
    seed=st.integers(0, 10_000),
)
def test_avgpool_backward_distributes_uniformly(size, kernel, seed):
    rng = np.random.default_rng(seed)
    usable = (size // kernel) * kernel
    grad_out = rng.standard_normal((1, 1, size // kernel, size // kernel))
    grad_x = K.avgpool2d_backward(grad_out, (1, 1, size, size),
                                  (kernel, kernel), (kernel, kernel))
    # total gradient mass is conserved
    np.testing.assert_allclose(grad_x.sum(), grad_out.sum(), atol=1e-10)
