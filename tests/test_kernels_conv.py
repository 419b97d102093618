"""Convolution kernels: every algorithm against a scipy reference, plus
gradient checks and the cuDNN-style algorithm-selection heuristic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from repro.kernels import nn as K


def reference_conv(x, w, stride, pad):
    n, c, h, width = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad[0], pad[0]), (pad[1], pad[1])))
    oh, ow = K.out_hw(h, width, kh, kw, stride, pad)
    out = np.zeros((n, o, oh, ow))
    for ni in range(n):
        for oi in range(o):
            acc = np.zeros((xp.shape[2] - kh + 1, xp.shape[3] - kw + 1))
            for ci in range(c):
                acc += signal.correlate2d(xp[ni, ci], w[oi, ci], mode="valid")
            out[ni, oi] = acc[::stride[0], ::stride[1]]
    return out


CASES = [
    # (x shape, w shape, stride, padding, expected algorithm)
    ((2, 3, 8, 8), (4, 3, 3, 3), (1, 1), (1, 1), "winograd"),
    ((2, 3, 9, 9), (4, 3, 3, 3), (1, 1), (0, 0), "winograd"),
    ((1, 1, 4, 4), (1, 1, 3, 3), (1, 1), (1, 1), "winograd"),
    ((2, 3, 8, 8), (4, 3, 1, 1), (1, 1), (0, 0), "gemm_1x1"),
    ((2, 3, 16, 16), (4, 3, 3, 3), (2, 2), (1, 1), "im2col"),
    ((1, 2, 10, 12), (3, 2, 3, 5), (2, 1), (1, 2), "im2col"),
    ((2, 3, 20, 20), (4, 3, 7, 7), (1, 1), (3, 3), "fft"),
    ((2, 3, 16, 16), (4, 3, 5, 5), (1, 1), (2, 2), "fft"),
]


@pytest.mark.parametrize("x_shape,w_shape,stride,pad,algorithm", CASES)
def test_forward_matches_scipy(rng, x_shape, w_shape, stride, pad, algorithm):
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal(w_shape)
    assert K.select_conv_algorithm(x_shape, w_shape, stride, pad) == algorithm
    got = K.conv2d_forward(x, w, stride, pad)
    want = reference_conv(x, w, stride, pad)
    np.testing.assert_allclose(got, want, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    pad=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    n=st.integers(1, 2),
    c=st.integers(1, 4),
    o=st.integers(1, 4),
    h=st.integers(5, 11),
    w=st.integers(5, 11),
    seed=st.integers(0, 10_000),
)
def test_im2col_matches_scipy_on_drawn_shapes(kernel, stride, pad, n, c, o,
                                              h, w, seed):
    # the other algorithms are checked against im2col over the same kind of
    # draws in test_kernels_property.py
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w))
    weight = rng.standard_normal((o, c) + kernel)
    got = K.conv2d_forward(x, weight, stride, pad, algorithm="im2col")
    np.testing.assert_allclose(got, reference_conv(x, weight, stride, pad),
                               atol=1e-10)


@pytest.mark.parametrize("forced", ["im2col", "winograd", "fft", "gemm_1x1"])
def test_forced_algorithms_agree(rng, forced):
    if forced == "gemm_1x1":
        x, w = rng.standard_normal((2, 3, 6, 6)), rng.standard_normal((4, 3, 1, 1))
        stride, pad = (1, 1), (0, 0)
    else:
        x, w = rng.standard_normal((2, 3, 8, 8)), rng.standard_normal((4, 3, 3, 3))
        stride, pad = (1, 1), (1, 1)
    baseline = K.conv2d_forward(x, w, stride, pad, algorithm="im2col")
    got = K.conv2d_forward(x, w, stride, pad, algorithm=forced)
    np.testing.assert_allclose(got, baseline, atol=1e-10)


@pytest.mark.parametrize("forced,kernel,stride", [
    ("winograd", 3, 2), ("gemm_1x1", 1, 2), ("winograd", 5, 1)])
def test_forced_algorithm_rejects_a_kernel_or_stride_it_does_not_take(
        rng, forced, kernel, stride):
    # neither kernel takes a stride; im2col and FFT subsample instead
    x = rng.standard_normal((1, 1, 8, 8))
    w = rng.standard_normal((1, 1, kernel, kernel))
    pad = (kernel // 2, kernel // 2)
    with pytest.raises(ValueError, match=rf"kernel \({kernel}, {kernel}\) "
                                         rf"and stride \({stride}, {stride}\)"):
        K.conv2d_forward(x, w, (stride, stride), pad, algorithm=forced)


def test_forced_winograd_at_stride_2_is_rejected_through_the_eager_op(rng):
    from repro.eager import F, tensor
    x = tensor(rng.standard_normal((1, 1, 8, 8)))
    w = tensor(rng.standard_normal((1, 1, 3, 3)))
    with pytest.raises(ValueError, match="winograd"):
        F.conv2d(x, w, stride=(2, 2), padding=(1, 1), algorithm="winograd")


@pytest.mark.parametrize("stride,pad", [((1, 1), (1, 1)), ((2, 2), (0, 0)),
                                        ((2, 1), (1, 2))])
def test_backward_input_numeric(rng, stride, pad):
    from tests.conftest import numeric_gradient
    x = rng.standard_normal((2, 2, 7, 8))
    w = rng.standard_normal((3, 2, 3, 3))
    out = K.conv2d_forward(x, w, stride, pad, algorithm="im2col")
    grad_out = rng.standard_normal(out.shape)
    got = K.conv2d_backward_input(grad_out, w, x.shape, stride, pad)
    want = numeric_gradient(
        lambda: K.conv2d_forward(x, w, stride, pad, algorithm="im2col"),
        x, grad_out)
    np.testing.assert_allclose(got, want, atol=1e-4)


@pytest.mark.parametrize("stride,pad", [((1, 1), (1, 1)), ((2, 2), (1, 1))])
def test_backward_weight_numeric(rng, stride, pad):
    from tests.conftest import numeric_gradient
    x = rng.standard_normal((2, 2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    out = K.conv2d_forward(x, w, stride, pad, algorithm="im2col")
    grad_out = rng.standard_normal(out.shape)
    got = K.conv2d_backward_weight(grad_out, x, w.shape, stride, pad)
    want = numeric_gradient(
        lambda: K.conv2d_forward(x, w, stride, pad, algorithm="im2col"),
        w, grad_out)
    np.testing.assert_allclose(got, want, atol=1e-4)


def test_output_shape_helper():
    assert K.out_hw(16, 16, 3, 3, (1, 1), (1, 1)) == (16, 16)
    assert K.out_hw(16, 16, 3, 3, (2, 2), (1, 1)) == (8, 8)
    assert K.out_hw(8, 10, 5, 3, (1, 2), (2, 0)) == (8, 4)


def test_winograd_matches_on_odd_sizes(rng):
    # Winograd tiles are 2x2; odd output sizes exercise the crop path
    x = rng.standard_normal((1, 2, 7, 9))
    w = rng.standard_normal((3, 2, 3, 3))
    got = K.conv2d_forward(x, w, (1, 1), (1, 1), algorithm="winograd")
    want = K.conv2d_forward(x, w, (1, 1), (1, 1), algorithm="im2col")
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_fft_with_stride_subsamples(rng):
    x = rng.standard_normal((1, 1, 12, 12))
    w = rng.standard_normal((1, 1, 5, 5))
    got = K.conv2d_forward(x, w, (2, 2), (2, 2), algorithm="fft")
    want = K.conv2d_forward(x, w, (2, 2), (2, 2), algorithm="im2col")
    np.testing.assert_allclose(got, want, atol=1e-10)
