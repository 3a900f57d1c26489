"""Reference copies of the autodiff code that the one-op ``linear``, the
blocked in-place ``gelu`` and residual ``layer_norm``, the batch
``cross_entropy`` over spans and the adopting backward sweep replaced, kept
as differential test oracles, and two ops that only replaced chains use:
``add_const`` and ``scale``, the additive mask and the score scaling of the
attention chains the fused attention ops replaced; ``scale`` also ends the
batch loss chain.

``reference_linear`` is two ops, a ``matmul`` then a bias ``add``.
``reference_gelu`` and ``reference_layer_norm`` build whole-size
temporaries; ``reference_layer_norm`` is an ``add`` of the residual, then
the norm. ``reference_batch_loss`` is a ``narrow`` and a one-row
``reference_cross_entropy`` per span, a chain of ``add`` and a ``scale``.
``reference_backward`` copies every first gradient it stores
and adds every later one into that copy. ``Adam`` is the per-tensor
optimizer the flat-buffer ``Adam`` replaced: one ``AdamState`` and step
counter per parameter, and a parameter without a gradient is skipped.
"""

import math
from dataclasses import dataclass

import numpy as np

from stepsum.autodiff import (
    AutodiffError,
    ShapeError,
    Tape,
    Tensor,
    _check_finite,
    _suffix_reduce,
    add,
    apply_op,
    matmul,
    narrow,
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


def reference_layer_norm(x: Tensor, residual: Tensor, gain: Tensor, bias: Tensor,
                         eps: float = 1e-6) -> Tensor:
    return _reference_norm(add(x, residual), gain, bias, eps)


def _reference_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
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


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * c

    def back(g, accum):
        accum(a, g * c)

    return apply_op(out, (a,), back, what="scale")


def reference_cross_entropy(logits: Tensor, target_index: int) -> Tensor:
    if logits.data.ndim != 1:
        raise ShapeError(f"cross_entropy needs 1-D logits, got {logits.shape}")
    n = logits.shape[0]
    if not (0 <= target_index < n):
        raise AutodiffError(f"cross_entropy target {target_index} out of range [0, {n})")
    m = logits.data.max()
    lse = m + math.log(np.exp(logits.data - m).sum())
    out = np.asarray(lse - logits.data[target_index])

    def back(g, accum):
        p = np.exp(logits.data - m)
        p /= p.sum()
        p[target_index] -= 1.0
        accum(logits, g * p)

    return apply_op(out, (logits,), back, what="cross_entropy")


def reference_batch_loss(rows, targets, spans=None) -> Tensor:
    """The mean one-row loss of ``rows``, a list of 1-D tensors, or of the
    ``spans`` of one 1-D tensor."""
    if spans is not None:
        rows = [narrow(rows, 0, s, n) for s, n in spans]
    total = None
    for row, t in zip(rows, targets):
        loss = reference_cross_entropy(row, t)
        total = loss if total is None else add(total, loss)
    return scale(total, 1.0 / len(targets))


@dataclass
class AdamState:
    """Per-parameter Adam moments plus hyperparameters."""

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_param(cls, param: Tensor, learning_rate: float) -> "AdamState":
        return cls(learning_rate, np.zeros_like(param.data), np.zeros_like(param.data))


def adam_step(param: Tensor, state: AdamState) -> None:
    """Apply one bias-corrected Adam update in place."""
    if param.grad is None:
        raise AutodiffError("adam_step requires a populated grad")
    g = param.grad
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    mhat = state.m / (1.0 - state.beta1**state.step)
    vhat = state.v / (1.0 - state.beta2**state.step)
    param.data -= state.learning_rate * mhat / (np.sqrt(vhat) + state.epsilon)
    _check_finite(param.data, "adam_step")


class Adam:
    """Convenience wrapper holding one AdamState per named parameter."""

    def __init__(self, params: dict[str, Tensor], learning_rate: float):
        self.params = dict(params)
        self.states = {name: AdamState.for_param(p, learning_rate)
                       for name, p in self.params.items()}

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is not None:
                adam_step(p, self.states[name])

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def train_flat_and_reference(build, loss_of, steps: int = 30, learning_rate: float = 0.01):
    """Parameters after ``steps`` steps of the flat ``stepsum.autodiff.Adam``
    and of the per-tensor reference ``Adam``, by name, one fresh ``build()``
    model each.

    Beside the model's own tensors, each optimizer gets ``unused``, a
    parameter no loss reads, so it never receives a gradient. Every step
    also calls ``Tensor.zero_grad`` on the first parameter between
    ``Adam.zero_grad`` and the backward. ``loss_of(model, step)`` builds the
    step's scalar loss on the live tape.
    """
    from stepsum.autodiff import Adam as FlatAdam, backward

    runs = []
    for optimizer in (FlatAdam, Adam):
        model = build()
        params = dict(model.named_parameters(),
                      unused=Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True))
        first = next(iter(params.values()))
        opt = optimizer(params, learning_rate)
        for step in range(steps):
            opt.zero_grad()
            first.zero_grad()
            with Tape() as tape:
                backward(tape, loss_of(model, step))
            opt.step()
        runs.append({name: p.data.copy() for name, p in params.items()})
    return runs
