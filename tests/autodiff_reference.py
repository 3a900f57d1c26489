"""Reference copies of the autodiff code that the one-op ``linear``, the
blocked in-place ``gelu`` and ``layer_norm`` and the adopting backward
sweep replaced, kept as differential test oracles, and ``add_const``, the
additive mask op of the attention chains the fused attention ops replaced.

``reference_linear`` is two ops, a ``matmul`` then a bias ``add``.
``reference_gelu`` and ``reference_layer_norm`` build whole-size
temporaries. ``reference_backward`` copies every first gradient it stores
and adds every later one into that copy.
"""

import math

import numpy as np

from stepsum.autodiff import (
    AutodiffError,
    ShapeError,
    Tape,
    Tensor,
    _suffix_reduce,
    add,
    apply_op,
    matmul,
)


def reference_backward(tape: Tape, loss: Tensor) -> None:
    if loss.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if id(loss) not in tape.produced:
        raise AutodiffError("loss is not reachable from this tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}

    def accum(t: Tensor, g: np.ndarray) -> None:
        if id(t) in tape.produced:
            buf = grads.get(id(t))
            if buf is None:
                grads[id(t)] = np.array(g, dtype=np.float64, copy=True)
            else:
                buf += g
        elif t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g

    for node in reversed(tape.nodes):
        g = grads.pop(node.out_id, None)
        if g is None:
            continue
        node.backward(g, accum)


def add_const(a: Tensor, const: np.ndarray) -> Tensor:
    """Add a non-learned array (e.g. an additive attention mask) broadcast to ``a``."""
    const = np.asarray(const, dtype=np.float64)
    if const.ndim > a.data.ndim or np.broadcast_shapes(const.shape, a.shape) != a.shape:
        raise ShapeError(f"add_const constant {const.shape} does not broadcast to {a.shape}")
    out = a.data + const

    def back(g, accum):
        accum(a, g)

    return apply_op(out, (a,), back, what="add_const")


def reference_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


_GELU_C = math.sqrt(2.0 / math.pi)


def reference_gelu(x: Tensor) -> Tensor:
    xd = x.data
    x2 = xd * xd
    t = np.tanh(_GELU_C * (xd + 0.044715 * (x2 * xd)))
    y = 0.5 * xd * (1.0 + t)

    def back(g, accum):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
        accum(x, g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * d_inner))

    return apply_op(y, (x,), back, what="gelu")


def reference_layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must match last extent {d}: {gain.shape}, {bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    y = xhat * gain.data + bias.data

    def back(g, accum):
        accum(gain, _suffix_reduce(g * xhat, gain.shape))
        accum(bias, _suffix_reduce(g, bias.shape))
        dxh = g * gain.data
        accum(
            x,
            inv
            * (
                dxh
                - dxh.mean(axis=-1, keepdims=True)
                - xhat * (dxh * xhat).mean(axis=-1, keepdims=True)
            ),
        )

    return apply_op(y, (x, gain, bias), back, what="layer_norm")
