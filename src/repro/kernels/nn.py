"""Numeric kernels shared by the eager and graph execution backends.

Every routine here is a pure ``numpy`` function dispatched through the
:mod:`repro.kernels.runtime` kernel runtime, so subscribed profilers see the
same kernel-level events on either backend.  Data layout is NCHW and conv
weights are OIHW (the graph backend converts from its NHWC/HWIO layout at op
boundaries, mirroring how TensorFlow differs from PyTorch — the divergence the
paper's MappingTool normalizes).

Convolution implements four real algorithms, with a cuDNN-style shape
heuristic choosing between them, so the Fig. 8 kernel-breakdown experiment
observes a genuine algorithm mix rather than a single code path:

* **1x1 GEMM** — one ``(O, C) @ (C, H*W)`` product per image;
* **im2col + GEMM** — a window gather, then one GEMM;
* **Winograd F(2x2, 3x3)** (Lavin & Gray) — the 4x4 input tiles gathered
  once, the input and output transforms as single GEMMs with the Kronecker
  products of the transform matrices, and the 16 tile products as one
  batched ``matmul`` over channels;
* **FFT** — ``rfft2`` of the padded input and of the flipped filter, the
  channel sum as a batched ``matmul`` over frequencies, and one ``irfft2``
  per (image, output channel).

The conv gradients are GEMMs over the kernel taps, and pooling runs a
running max or sum over the kh·kw strided slices of its padded input.  Every
operand is made C-contiguous before a ``matmul``, so a kernel's result
depends on its inputs' values and shapes only, never on their strides: the
eager, graph, captured and ONNX backends stay bit-identical.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .runtime import launch

__all__ = [
    "conv2d_forward", "conv2d_backward_input", "conv2d_backward_weight",
    "select_conv_algorithm", "maxpool2d_forward", "maxpool2d_backward",
    "avgpool2d_forward", "avgpool2d_backward", "batch_norm_forward",
    "batch_norm_backward", "layer_norm_forward", "layer_norm_backward",
    "softmax", "softmax_backward", "log_softmax", "log_softmax_backward",
    "gelu", "gelu_backward", "relu", "relu_backward", "sigmoid",
    "sigmoid_backward", "tanh_backward", "embedding_forward",
    "embedding_backward", "matmul", "out_hw",
]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def out_hw(h: int, w: int, kh: int, kw: int, stride: tuple[int, int],
           padding: tuple[int, int]) -> tuple[int, int]:
    """Output spatial dims of a conv/pool window sweep."""
    sh, sw = stride
    ph, pw = padding
    return (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1


def _pad_nchw(x: np.ndarray, ph: int, pw: int, value: float = 0.0,
              extra: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Pad H by ``ph`` and W by ``pw`` on both sides, plus ``extra`` rows and
    columns at the bottom and right only."""
    eh, ew = extra
    if not (ph or pw or eh or ew):
        return x
    n, c, h, w = x.shape
    out = np.full((n, c, h + 2 * ph + eh, w + 2 * pw + ew), value,
                  dtype=x.dtype)
    out[:, :, ph:ph + h, pw:pw + w] = x
    return out


def _windows(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Strided view (N, C, OH, OW, KH, KW) over a padded NCHW array."""
    view = sliding_window_view(x, (kh, kw), axis=(2, 3))
    return view[:, :, ::sh, ::sw]


def _taps(xp: np.ndarray, kh: int, kw: int, stride, oh: int, ow: int):
    """The (N, C, OH, OW) strided slice of ``xp`` that each kernel tap
    reads, in row-major tap order.  Each slice is a view: adding into one
    writes through to ``xp``."""
    sh, sw = stride
    for i in range(kh):
        for j in range(kw):
            yield xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def select_conv_algorithm(x_shape, w_shape, stride, padding) -> str:
    """cuDNN-style heuristic choice among conv algorithms.

    * 1x1 kernels collapse to a plain GEMM.
    * 3x3 stride-1 convs use Winograd F(2x2, 3x3).
    * Large kernels (>= 5) on large inputs amortize an FFT.
    * Everything else goes through im2col + GEMM.
    """
    kh, kw = w_shape[2], w_shape[3]
    sh, sw = stride
    if kh == 1 and kw == 1 and sh == 1 and sw == 1:
        return "gemm_1x1"
    if kh == 3 and kw == 3 and sh == 1 and sw == 1:
        return "winograd"
    if kh >= 5 and kw >= 5 and x_shape[2] >= 2 * kh:
        return "fft"
    return "im2col"


def conv2d_forward(x: np.ndarray, weight: np.ndarray,
                   stride=(1, 1), padding=(0, 0),
                   algorithm: str = "auto") -> np.ndarray:
    """2-D cross-correlation.  x: (N,C,H,W); weight: (O,C,KH,KW)."""
    if algorithm == "auto":
        algorithm = select_conv_algorithm(x.shape, weight.shape, stride, padding)
    if algorithm == "gemm_1x1":
        return _conv2d_1x1(x, weight, padding)
    if algorithm == "winograd":
        return launch("conv2d_winograd", _conv2d_winograd, x, weight, padding)
    if algorithm == "fft":
        return launch("conv2d_fft", _conv2d_fft, x, weight, stride, padding)
    return _conv2d_im2col(x, weight, stride, padding)


def _conv2d_1x1(x: np.ndarray, weight: np.ndarray, padding) -> np.ndarray:
    xp = _pad_nchw(x, *padding)
    w2 = weight.reshape(weight.shape[0], weight.shape[1])

    def body(xp, w2):
        n, c, h, w = xp.shape
        pixels = np.ascontiguousarray(xp).reshape(n, c, h * w)
        return (np.ascontiguousarray(w2) @ pixels).reshape(n, -1, h, w)

    return launch("conv2d_1x1_gemm", body, xp, w2)


def _conv2d_im2col(x: np.ndarray, weight: np.ndarray, stride, padding) -> np.ndarray:
    sh, sw = stride
    kh, kw = weight.shape[2], weight.shape[3]
    xp = _pad_nchw(x, *padding)
    cols = launch("im2col", _windows, xp, kh, kw, sh, sw)
    # (N,C,OH,OW,KH,KW) x (O,C,KH,KW) -> (N,O,OH,OW)
    def gemm(cols, weight):
        n, c, oh, ow = cols.shape[:4]
        flat = cols.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, -1)
        wf = weight.reshape(weight.shape[0], -1)
        out = flat @ wf.T
        return out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)

    return launch("gemm", gemm, cols, weight)


# Winograd F(2x2, 3x3) transform matrices.
_WINO_BT = np.array([[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]],
                    dtype=np.float64)
_WINO_G = np.array([[1, 0, 0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0, 0, 1]],
                   dtype=np.float64)
_WINO_AT = np.array([[1, 1, 1, 0], [0, 1, -1, -1]], dtype=np.float64)
# Each 2-D transform as one matrix over a row-major flattened tile:
# flat(L t R) == kron(L, R.T) @ flat(t).
_WINO_IN = np.kron(_WINO_BT, _WINO_BT)                       # (16, 16)
_WINO_FILTER = np.ascontiguousarray(np.kron(_WINO_G, _WINO_G).T)  # (9, 16)
_WINO_OUT = np.kron(_WINO_AT, _WINO_AT)                      # (4, 16)


def _conv2d_winograd(x: np.ndarray, weight: np.ndarray, padding) -> np.ndarray:
    """Winograd F(2x2, 3x3) for stride-1 3x3 convolutions."""
    n, c, h, w = x.shape
    o = weight.shape[0]
    ph, pw = padding
    oh, ow = h + 2 * ph - 2, w + 2 * pw - 2
    th, tw = -(-oh // 2), -(-ow // 2)  # 2x2 output tiles per dim
    # pad the output dims up to whole tiles
    xp = _pad_nchw(x, ph, pw, extra=(2 * th - oh, 2 * tw - ow))
    dtype = x.dtype
    # the overlapping 4x4 input tiles, gathered once: (16, C * N*th*tw)
    tiles = sliding_window_view(xp, (4, 4), axis=(2, 3))[:, :, ::2, ::2]
    d = np.ascontiguousarray(tiles.transpose(4, 5, 1, 0, 2, 3)).reshape(16, -1)
    v = (_WINO_IN.astype(dtype, copy=False) @ d).reshape(16, c, -1)
    u = np.ascontiguousarray(weight, dtype=dtype).reshape(o * c, 9) \
        @ _WINO_FILTER.astype(dtype, copy=False)
    u = np.ascontiguousarray(u.T).reshape(16, o, c)
    # the 16 tile products, each reducing over channels: (16, O, N*th*tw)
    m = u @ v
    y = _WINO_OUT.astype(dtype, copy=False) @ m.reshape(16, -1)
    # scatter the 2x2 output tiles back: (2, 2, O, N, th, tw) -> (N, O, OH, OW)
    y = y.reshape(2, 2, o, n, th, tw).transpose(3, 2, 4, 0, 5, 1)
    return np.ascontiguousarray(y.reshape(n, o, 2 * th, 2 * tw)[:, :, :oh, :ow])


def _conv2d_fft(x: np.ndarray, weight: np.ndarray, stride, padding) -> np.ndarray:
    n, c = x.shape[:2]
    o, _, kh, kw = weight.shape
    sh, sw = stride
    xp = np.ascontiguousarray(_pad_nchw(x, *padding))
    size = xp.shape[2:]
    # cross-correlation == convolution with the flipped kernel.  A circular
    # convolution over the padded input's size wraps into the first kh-1
    # rows and kw-1 columns only, which the valid crop below drops.
    fx = np.fft.rfft2(xp, s=size)
    fw = np.fft.rfft2(np.ascontiguousarray(weight[:, :, ::-1, ::-1]), s=size)
    freq = fx.shape[2:]
    bins = freq[0] * freq[1]
    # the channel sum, one (N, C) @ (C, O) product per frequency
    fx = np.ascontiguousarray(fx.reshape(n, c, bins).transpose(2, 0, 1))
    fw = np.ascontiguousarray(fw.reshape(o, c, bins).transpose(2, 1, 0))
    fy = np.ascontiguousarray((fx @ fw).transpose(1, 2, 0)).reshape(n, o, *freq)
    full = np.fft.irfft2(fy, s=size)
    return np.ascontiguousarray(full[:, :, kh - 1::sh, kw - 1::sw])


def conv2d_backward_input(grad_out: np.ndarray, weight: np.ndarray,
                          x_shape, stride=(1, 1), padding=(0, 0)) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input."""
    n, c, h, w = x_shape
    o, _, kh, kw = weight.shape
    ph, pw = padding
    oh, ow = grad_out.shape[2], grad_out.shape[3]

    def body(grad_out, weight):
        # one GEMM for every tap: row block (i, j) is W[:, :, i, j]^T @ g
        wt = np.ascontiguousarray(weight.transpose(2, 3, 1, 0))
        g = np.ascontiguousarray(grad_out).reshape(n, o, oh * ow)
        cols = (wt.reshape(kh * kw * c, o) @ g).reshape(n, kh * kw, c, oh, ow)
        gxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=grad_out.dtype)
        for tap, window in enumerate(_taps(gxp, kh, kw, stride, oh, ow)):
            window += cols[:, tap]
        if ph or pw:
            return gxp[:, :, ph:ph + h, pw:pw + w]
        return gxp

    return launch("conv2d_bwd_data", body, grad_out, weight)


def conv2d_backward_weight(grad_out: np.ndarray, x: np.ndarray, w_shape,
                           stride=(1, 1), padding=(0, 0)) -> np.ndarray:
    """Gradient of conv2d w.r.t. its weight."""
    o, c, kh, kw = w_shape

    def body(grad_out, x):
        n, oh, ow = grad_out.shape[0], grad_out.shape[2], grad_out.shape[3]
        xp = _pad_nchw(x, *padding).transpose(1, 0, 2, 3)
        # im2col over (tap, C) rows and (N, OH, OW) columns, then one GEMM
        cols = np.empty((kh * kw, c, n, oh, ow), dtype=x.dtype)
        for tap, window in enumerate(_taps(xp, kh, kw, stride, oh, ow)):
            cols[tap] = window
        g = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1))
        gw = cols.reshape(kh * kw * c, -1) @ g.reshape(-1, o)
        return np.ascontiguousarray(gw.reshape(kh, kw, c, o).transpose(3, 2, 0, 1))

    return launch("conv2d_bwd_filter", body, grad_out, x)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def maxpool2d_forward(x, kernel=(2, 2), stride=None, padding=(0, 0)):
    kh, kw = kernel
    stride = stride or kernel

    def body(x):
        xp = _pad_nchw(x, *padding, value=-np.inf)
        oh, ow = out_hw(*x.shape[2:], kh, kw, stride, padding)
        taps = _taps(xp, kh, kw, stride, oh, ow)
        out = next(taps).copy()
        for window in taps:
            np.maximum(out, window, out=out)
        return out

    return launch("maxpool2d", body, x)


def maxpool2d_backward(grad_out, x, out, kernel=(2, 2), stride=None,
                       padding=(0, 0)):
    kh, kw = kernel
    stride = stride or kernel
    ph, pw = padding
    n, c, h, w = x.shape
    oh, ow = out.shape[2], out.shape[3]

    def body(grad_out, x, out):
        xp = _pad_nchw(x, ph, pw, value=-np.inf)
        masks = [window == out for window in _taps(xp, kh, kw, stride, oh, ow)]
        # tied maxima split the gradient evenly
        counts = np.zeros(out.shape)
        for mask in masks:
            counts += mask
        share = grad_out / counts
        gxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=grad_out.dtype)
        for window, mask in zip(_taps(gxp, kh, kw, stride, oh, ow), masks):
            window += mask * share
        if ph or pw:
            return gxp[:, :, ph:ph + h, pw:pw + w]
        return gxp

    return launch("maxpool2d_bwd", body, grad_out, x, out)


def avgpool2d_forward(x, kernel=(2, 2), stride=None, padding=(0, 0)):
    kh, kw = kernel
    stride = stride or kernel

    def body(x):
        xp = _pad_nchw(x, *padding)
        oh, ow = out_hw(*x.shape[2:], kh, kw, stride, padding)
        taps = _taps(xp, kh, kw, stride, oh, ow)
        out = next(taps).copy()
        for window in taps:
            out += window
        # the window's padding counts toward the mean
        out /= kh * kw
        return out

    return launch("avgpool2d", body, x)


def avgpool2d_backward(grad_out, x_shape, kernel=(2, 2), stride=None,
                       padding=(0, 0)):
    kh, kw = kernel
    stride = stride or kernel
    ph, pw = padding
    n, c, h, w = x_shape
    oh, ow = grad_out.shape[2], grad_out.shape[3]

    def body(grad_out):
        share = grad_out / (kh * kw)
        gxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=grad_out.dtype)
        for window in _taps(gxp, kh, kw, stride, oh, ow):
            window += share
        if ph or pw:
            return gxp[:, :, ph:ph + h, pw:pw + w]
        return gxp

    return launch("avgpool2d_bwd", body, grad_out)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def batch_norm_forward(x, gamma, beta, running_mean, running_var,
                       training: bool, momentum: float = 0.1, eps: float = 1e-5):
    """BatchNorm over channel axis 1 of an NCHW (or NC) tensor.

    Returns ``(out, cache, new_running_mean, new_running_var)``; cache feeds
    the backward pass.
    """
    axes = (0,) + tuple(range(2, x.ndim))
    shape = (1, -1) + (1,) * (x.ndim - 2)

    def body(x, gamma, beta):
        if training:
            # x.mean and x.var bit for bit, with the mean taken once and the
            # centred input shared by the variance and xhat
            count = x.size // max(x.shape[1], 1)
            mean = np.add.reduce(x, axis=axes, keepdims=True) / count
            centered = x - mean
            var = np.add.reduce(np.square(centered), axis=axes) / count
            mean = mean.reshape(-1)
            nrm = running_mean * (1 - momentum) + mean * momentum
            nrv = running_var * (1 - momentum) + var * momentum
        else:
            mean, var = running_mean, running_var
            nrm, nrv = running_mean, running_var
            centered = x - mean.reshape(shape)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = centered * inv_std.reshape(shape)
        out = gamma.reshape(shape) * xhat
        out += beta.reshape(shape)
        cache = (xhat, inv_std, gamma)
        return out, cache, nrm, nrv

    return launch("batch_norm", body, x, gamma, beta)


def batch_norm_backward(grad_out, cache, training: bool):
    xhat, inv_std, gamma = cache
    axes = (0,) + tuple(range(2, grad_out.ndim))
    shape = (1, -1) + (1,) * (grad_out.ndim - 2)

    def body(grad_out):
        dgamma = (grad_out * xhat).sum(axis=axes)
        dbeta = grad_out.sum(axis=axes)
        gscaled = grad_out * gamma.reshape(shape)
        if not training:
            dx = gscaled * inv_std.reshape(shape)
            return dx, dgamma, dbeta
        m = grad_out.size / grad_out.shape[1]
        dx = (inv_std.reshape(shape) / m) * (
            m * gscaled
            - gscaled.sum(axis=axes).reshape(shape)
            - xhat * (gscaled * xhat).sum(axis=axes).reshape(shape)
        )
        return dx, dgamma, dbeta

    return launch("batch_norm_bwd", body, grad_out)


def layer_norm_forward(x, gamma, beta, eps: float = 1e-5):
    """LayerNorm over the last dimension."""

    def body(x, gamma, beta):
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x - mean) * inv_std
        return gamma * xhat + beta, (xhat, inv_std, gamma)

    return launch("layer_norm", body, x, gamma, beta)


def layer_norm_backward(grad_out, cache):
    xhat, inv_std, gamma = cache

    def body(grad_out):
        d = grad_out.shape[-1]
        dgamma = (grad_out * xhat).reshape(-1, d).sum(axis=0)
        dbeta = grad_out.reshape(-1, d).sum(axis=0)
        g = grad_out * gamma
        dx = inv_std / d * (
            d * g
            - g.sum(axis=-1, keepdims=True)
            - xhat * (g * xhat).sum(axis=-1, keepdims=True)
        )
        return dx, dgamma, dbeta

    return launch("layer_norm_bwd", body, grad_out)


# ---------------------------------------------------------------------------
# activations / softmax
# ---------------------------------------------------------------------------

def relu(x, out=None):
    return launch("relu", np.maximum, x, 0.0, out=out)


def relu_backward(grad_out, x):
    return launch("relu_bwd", lambda g, x: g * (x > 0), grad_out, x)


def sigmoid(x):
    return launch("sigmoid", lambda x: 1.0 / (1.0 + np.exp(-x)), x)


def sigmoid_backward(grad_out, out):
    return launch("sigmoid_bwd", lambda g, y: g * y * (1.0 - y), grad_out, out)


def tanh_backward(grad_out, out):
    return launch("tanh_bwd", lambda g, y: g * (1.0 - y * y), grad_out, out)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x):
    def body(x):
        inner = _GELU_C * (x + 0.044715 * x ** 3)
        return 0.5 * x * (1.0 + np.tanh(inner))

    return launch("gelu", body, x)


def gelu_backward(grad_out, x):
    def body(grad_out, x):
        inner = _GELU_C * (x + 0.044715 * x ** 3)
        t = np.tanh(inner)
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
        return grad_out * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)

    return launch("gelu_bwd", body, grad_out, x)


def softmax(x, axis: int = -1):
    def body(x):
        z = x - x.max(axis=axis, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=axis, keepdims=True)

    return launch("softmax", body, x)


def softmax_backward(grad_out, out, axis: int = -1):
    def body(grad_out, out):
        dot = (grad_out * out).sum(axis=axis, keepdims=True)
        return out * (grad_out - dot)

    return launch("softmax_bwd", body, grad_out, out)


def log_softmax(x, axis: int = -1):
    def body(x):
        z = x - x.max(axis=axis, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    return launch("log_softmax", body, x)


def log_softmax_backward(grad_out, out, axis: int = -1):
    def body(grad_out, out):
        return grad_out - np.exp(out) * grad_out.sum(axis=axis, keepdims=True)

    return launch("log_softmax_bwd", body, grad_out, out)


# ---------------------------------------------------------------------------
# embedding / matmul
# ---------------------------------------------------------------------------

def embedding_forward(indices, weight):
    return launch("gather", lambda idx, w: w[idx], indices, weight)


def embedding_backward(grad_out, indices, vocab_size):
    def body(grad_out, indices):
        grad_w = np.zeros((vocab_size, grad_out.shape[-1]), dtype=grad_out.dtype)
        np.add.at(grad_w, indices.reshape(-1),
                  grad_out.reshape(-1, grad_out.shape[-1]))
        return grad_w

    return launch("scatter_add", body, grad_out, indices)


def matmul(a, b):
    return launch("gemm", np.matmul, a, b)
