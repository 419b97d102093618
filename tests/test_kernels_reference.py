"""The conv gradients by the adjoint identity, avg pooling and the max-pool
gradient against direct-loop references, stride independence of every
result, one launch per kernel, and a library import that leaves
``scipy.signal`` unloaded."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.kernels import nn as K
from repro.kernels.runtime import runtime
from tests.test_kernels_conv import reference_conv


def _pad(x, padding, value=0.0):
    ph, pw = padding
    n, c, h, w = x.shape
    xp = np.full((n, c, h + 2 * ph, w + 2 * pw), value)
    xp[:, :, ph:ph + h, pw:pw + w] = x
    return xp


def _window_slices(out_shape, kernel, stride):
    """(y, x, window slice) for every output pixel."""
    for y in range(out_shape[0]):
        for x in range(out_shape[1]):
            yield y, x, (slice(None), slice(None),
                         slice(y * stride[0], y * stride[0] + kernel[0]),
                         slice(x * stride[1], x * stride[1] + kernel[1]))


def direct_avgpool(x, kernel, stride, padding):
    oh, ow = K.out_hw(x.shape[2], x.shape[3], *kernel, stride, padding)
    xp = _pad(x, padding)
    out = np.zeros(x.shape[:2] + (oh, ow))
    for y, z, window in _window_slices((oh, ow), kernel, stride):
        out[:, :, y, z] = xp[window].mean(axis=(2, 3))
    return out


def direct_maxpool_backward(grad_out, x, kernel, stride, padding):
    """Each window's gradient split evenly among its tied maxima."""
    xp = _pad(x, padding, -np.inf)
    grad = np.zeros_like(xp)
    for y, z, window in _window_slices(grad_out.shape[2:], kernel, stride):
        values = xp[window]
        mask = values == values.max(axis=(2, 3), keepdims=True)
        share = grad_out[:, :, y, z, None, None] \
            / mask.sum(axis=(2, 3), keepdims=True)
        grad[window] += mask * share
    ph, pw = padding
    return grad[:, :, ph:ph + x.shape[2], pw:pw + x.shape[3]]


# ---------------------------------------------------------------------------
# conv gradients: <conv(x, w), g> == <x, bwd_input(g)> == <w, bwd_weight(g, x)>
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([1, 3, 5]),
    stride=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    padding=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    c=st.integers(1, 4),
    o=st.integers(1, 4),
    h=st.integers(5, 11),
    w=st.integers(5, 11),
    seed=st.integers(0, 10_000),
)
@example(k=1, stride=(2, 1), padding=(1, 2), c=3, o=2, h=7, w=9, seed=0)
@example(k=3, stride=(2, 1), padding=(1, 2), c=3, o=2, h=7, w=9, seed=1)
@example(k=5, stride=(2, 1), padding=(1, 2), c=3, o=2, h=7, w=9, seed=2)
def test_conv_backward_is_the_adjoint(k, stride, padding, c, o, h, w, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, c, h, w))
    weight = rng.standard_normal((o, c, k, k))
    grad_out = rng.standard_normal(
        (2, o) + K.out_hw(h, w, k, k, stride, padding))
    forward = np.vdot(reference_conv(x, weight, stride, padding), grad_out)
    grad_x = K.conv2d_backward_input(grad_out, weight, x.shape, stride, padding)
    grad_w = K.conv2d_backward_weight(grad_out, x, weight.shape, stride, padding)
    assert grad_x.shape == x.shape and grad_w.shape == weight.shape
    np.testing.assert_allclose(np.vdot(x, grad_x), forward, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(np.vdot(weight, grad_w), forward,
                               rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

@st.composite
def pool_cases(draw):
    kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    # every window keeps at least one real cell
    padding = (draw(st.integers(0, kernel[0] // 2)),
               draw(st.integers(0, kernel[1] // 2)))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
             draw(st.integers(3, 9)), draw(st.integers(3, 9)))
    return kernel, stride, padding, shape, draw(st.integers(0, 10_000))


@settings(max_examples=40, deadline=None)
@given(case=pool_cases())
def test_avgpool_forward_matches_direct_loop(case):
    kernel, stride, padding, shape, seed = case
    x = np.random.default_rng(seed).standard_normal(shape)
    # avg pooling divides by kh * kw, padding included
    np.testing.assert_allclose(K.avgpool2d_forward(x, kernel, stride, padding),
                               direct_avgpool(x, kernel, stride, padding),
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(case=pool_cases())
def test_maxpool_backward_splits_tied_maxima_evenly(case):
    kernel, stride, padding, shape, seed = case
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, shape).astype(float)  # ties in most windows
    out = K.maxpool2d_forward(x, kernel, stride, padding)
    grad_out = rng.standard_normal(out.shape)
    got = K.maxpool2d_backward(grad_out, x, out, kernel, stride, padding)
    np.testing.assert_allclose(
        got, direct_maxpool_backward(grad_out, x, kernel, stride, padding),
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got.sum(), grad_out.sum(), atol=1e-9)


def test_maxpool_backward_four_way_tie():
    x = np.ones((1, 1, 2, 2))
    out = K.maxpool2d_forward(x, (2, 2))
    got = K.maxpool2d_backward(np.full((1, 1, 1, 1), 2.0), x, out, (2, 2))
    np.testing.assert_array_equal(got, np.full((1, 1, 2, 2), 0.5))


# ---------------------------------------------------------------------------
# every kernel: one launch under its name, and a result its inputs' strides
# do not change
# ---------------------------------------------------------------------------

#: case -> (kernels it launches, call over a dict of NCHW / OIHW arrays)
KERNEL_CALLS = {
    "winograd": (["conv2d_winograd"], lambda a: K.conv2d_forward(
        a["x"], a["w3"], (1, 1), (1, 1), "winograd")),
    "fft": (["conv2d_fft"], lambda a: K.conv2d_forward(
        a["x"], a["w5"], (1, 1), (2, 2), "fft")),
    "gemm_1x1": (["conv2d_1x1_gemm"], lambda a: K.conv2d_forward(
        a["x"], a["w1"], (1, 1), (0, 0), "gemm_1x1")),
    "im2col": (["im2col", "gemm"], lambda a: K.conv2d_forward(
        a["x"], a["w3"], (2, 1), (1, 2), "im2col")),
    "conv2d_bwd_data": (["conv2d_bwd_data"], lambda a: K.conv2d_backward_input(
        a["g"], a["w3"], a["x"].shape, (2, 1), (1, 2))),
    "conv2d_bwd_filter": (["conv2d_bwd_filter"],
                          lambda a: K.conv2d_backward_weight(
                              a["g"], a["x"], a["w3"].shape, (2, 1), (1, 2))),
    "maxpool2d": (["maxpool2d"], lambda a: K.maxpool2d_forward(
        a["x"], (3, 3), (2, 2), (1, 1))),
    "maxpool2d_bwd": (["maxpool2d_bwd"], lambda a: K.maxpool2d_backward(
        a["gp"], a["x"], a["pooled"], (3, 3), (2, 2), (1, 1))),
    "avgpool2d": (["avgpool2d"], lambda a: K.avgpool2d_forward(
        a["x"], (3, 3), (2, 2), (1, 1))),
    "avgpool2d_bwd": (["avgpool2d_bwd"], lambda a: K.avgpool2d_backward(
        a["gp"], a["x"].shape, (3, 3), (2, 2), (1, 1))),
}


@pytest.fixture
def arrays(rng):
    x = rng.standard_normal((2, 3, 9, 8))
    a = {"x": x,
         "w1": rng.standard_normal((4, 3, 1, 1)),
         "w3": rng.standard_normal((4, 3, 3, 3)),
         "w5": rng.standard_normal((4, 3, 5, 5)),
         # conv (2, 1) stride, (1, 2) padding, 3x3: a 5x10 output
         "g": rng.standard_normal((2, 4, 5, 10)),
         # pool 3x3, (2, 2) stride, (1, 1) padding: a 5x4 output
         "gp": rng.standard_normal((2, 3, 5, 4))}
    a["pooled"] = K.maxpool2d_forward(x, (3, 3), (2, 2), (1, 1))
    return a


def _transposed_view(a):
    """The same values, held as an NCHW view over NHWC memory."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@pytest.mark.parametrize("case", sorted(KERNEL_CALLS))
def test_kernel_launches_once_under_its_name(arrays, case):
    names, call = KERNEL_CALLS[case]
    events = []
    runtime.subscribe(events.append)
    try:
        call(arrays)
    finally:
        runtime.unsubscribe(events.append)
    assert [event.name for event in events] == names


@pytest.mark.parametrize("case", sorted(KERNEL_CALLS))
def test_result_does_not_depend_on_input_strides(arrays, case):
    call = KERNEL_CALLS[case][1]
    views = {name: _transposed_view(a) for name, a in arrays.items()}
    assert not views["x"].flags.c_contiguous
    np.testing.assert_array_equal(call(views), call(arrays))


def test_library_import_leaves_scipy_signal_unloaded():
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = ("import sys, repro.amanda, repro.models.graph, repro.models.eager; "
            "print('scipy.signal' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=source))
    assert result.stdout.strip() == "False"
