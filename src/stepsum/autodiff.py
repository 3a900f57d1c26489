"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything runs in double precision on row-major numpy storage. Forward ops
optionally record themselves on an explicit tape (a context manager); a
backward sweep walks the tape once in reverse and accumulates gradients into
``requires_grad`` leaves. The sweep consumes the tape: it drops each node
once that node's backward has run, so an op's output and the arrays its
backward saved are freed as soon as the sweep is past them, and a swept
tape cannot be swept again. Outside a tape the same ops run without
recording, which is the inference path.

Ops never write into their inputs or into the gradient their backward
receives. The sweep relies on that: it stores a tensor's first incoming
gradient as it is when that is a C-contiguous float64 array, which may be
another tensor's gradient or a view of one, and never writes into it. Only
a buffer the sweep made itself (a copy, or the sum of two contributions)
is added into in place.

``linear``, ``gelu`` and ``layer_norm`` (of a residual sum) are single ops
that run in place on their own buffers, ``gelu`` and ``layer_norm`` in
blocks of about ``BLOCK_ELEMENTS`` elements, so a block's arrays stay in
cache. Each keeps the expression order of the plain numpy formula, so
values and gradients keep their exact bits. ``cross_entropy`` is a batch's
mean loss in one op, over the rows that spans mark in one logits vector.

``Adam`` holds the parameters, its moments and the gathered gradients in
flat buffers in payload order, and updates them in one blocked pass.

Broadcasting is deliberately narrow: elementwise ops need equal shapes and
``add``/``sub`` additionally accept a trailing-axes operand (bias vectors,
shared positional rows). Matmul supports 2-D and equal-batch stacked
operands plus the stacked-by-2-D projection case. Keeping the rules small
keeps every backward rule auditable.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np


# Additive mask value: large enough that exp(x - max) underflows to exactly
# 0.0 after max subtraction, finite so autodiff never sees an inf.
MASK_NEG = -1e30

# ``gelu``, ``layer_norm`` and ``Adam.step`` go through their input in blocks
# of about this many elements (64 rows at ffn_dim 256): 128 KiB per float64
# array, so the few arrays a block touches stay in L2.
BLOCK_ELEMENTS = 1 << 14


class AutodiffError(ValueError):
    pass


class ShapeError(AutodiffError):
    pass


class NonFiniteError(AutodiffError):
    pass


def _check_finite(arr: np.ndarray, what: str) -> None:
    # One reduction instead of an elementwise isfinite scan: any NaN or Inf
    # poisons the sum. (A sum overflowing on finite inputs would need ~1e308
    # magnitudes, itself a defect worth rejecting.)
    if not math.isfinite(float(arr.sum())):
        raise NonFiniteError(f"{what} produced non-finite values")


class Tensor:
    """A dense array with an optional gradient slot.

    ``data`` is always a contiguous float64 ndarray; once an ``Adam`` owns
    the tensor, a view of its flat buffer. ``grad`` starts out as None and is
    materialized (and accumulated into) by backward sweeps; the caller
    zeroes it between optimizer steps via ``zero_grad``.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, *,
                 what: str = "tensor construction"):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # note: keeps 0-d shapes intact
        _check_finite(arr, what)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single value, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class _Node:
    out_id: int
    out_ref: Tensor
    backward: Callable[[np.ndarray, Callable[[Tensor, np.ndarray], None]], None]


class Tape:
    """Ordered record of forward operations for one backward sweep.

    Nodes are appended in execution order, which is by construction a
    topological order, so walking the list in reverse visits every node
    exactly once with its output gradient fully accumulated. ``produced``
    holds the ids of the outputs of the nodes still on the tape. A tape is
    single-owner and not thread safe.
    """

    def __init__(self) -> None:
        self.nodes: list[_Node] = []
        self.produced: set[int] = set()
        self.swept = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted")


# per-thread stacks: a tape is single-owner, and distinct tapes may run on
# distinct threads without sharing state
_TAPE_LOCAL = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_TAPE_LOCAL, "stack", None)
    if stack is None:
        stack = _TAPE_LOCAL.stack = []
    return stack


def active_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


def _tracked(tape: Tape | None, t: Tensor) -> bool:
    if tape is None:
        return False
    return t.requires_grad or id(t) in tape.produced


def apply_op(out_data: np.ndarray, inputs: Sequence[Tensor], backward, *, what: str) -> Tensor:
    """Finalize an op: finite-check the result and record it if a tape is live.

    ``backward`` receives the output gradient and an accumulator callback
    ``accum(tensor, grad_array)``; it must only route gradients, never touch
    forward values. The finite check is the one ``Tensor`` construction runs,
    reported under the op's name.
    """
    out = Tensor(out_data, what=what)
    tape = active_tape()
    if tape is not None and any(_tracked(tape, t) for t in inputs):
        tape.nodes.append(_Node(id(out), out, backward))
        tape.produced.add(id(out))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Run the reverse sweep from ``loss``, accumulating into leaf ``grad`` slots.

    The sweep pops each node off the tape and drops it once its backward
    has run, and forgets its output's id, so a later tensor that reuses the
    id is not mistaken for it. It leaves the tape empty and spent.
    """
    if loss.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape.swept:
        raise AutodiffError("this tape was swept already; record a new one")
    if id(loss) not in tape.produced:
        raise AutodiffError("loss is not reachable from this tape")
    tape.swept = True

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    # ids whose buffer the sweep made itself; only these are added into in
    # place, since an adopted gradient may be shared or a view
    owned: set[int] = set()

    def accum(t: Tensor, g: np.ndarray) -> None:
        key = id(t)
        if key in tape.produced:
            buf = grads.get(key)
            if buf is None:
                if (isinstance(g, np.ndarray) and g.dtype == np.float64
                        and g.flags.c_contiguous):
                    grads[key] = g
                else:
                    grads[key] = np.array(g, dtype=np.float64, copy=True)
                    owned.add(key)
            elif key in owned:
                buf += g
            else:
                grads[key] = buf + g
                owned.add(key)
        elif t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g

    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        tape.produced.discard(node.out_id)
        owned.discard(node.out_id)
        g = grads.pop(node.out_id, None)
        if g is not None:
            node.backward(g, accum)


# ---------------------------------------------------------------------------
# elementwise / affine ops
# ---------------------------------------------------------------------------


def _suffix_reduce(g: np.ndarray, target_shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the leading axes it gained by trailing-axes broadcast."""
    extra = g.ndim - len(target_shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    return g


def _blocks(n: int, step: int):
    """``(lo, hi)`` bounds of consecutive blocks of at most ``step`` of ``n``."""
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape and a.shape[a.data.ndim - b.data.ndim:] != b.shape:
        raise ShapeError(f"add shapes incompatible: {a.shape} vs {b.shape}")
    out = a.data + b.data

    def back(g, accum):
        accum(a, g)
        accum(b, _suffix_reduce(g, b.shape))

    return apply_op(out, (a, b), back, what="add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape and a.shape[a.data.ndim - b.data.ndim:] != b.shape:
        raise ShapeError(f"sub shapes incompatible: {a.shape} vs {b.shape}")
    out = a.data - b.data

    def back(g, accum):
        accum(a, g)
        accum(b, -_suffix_reduce(g, b.shape))

    return apply_op(out, (a, b), back, what="sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul needs equal shapes: {a.shape} vs {b.shape}")
    out = a.data * b.data
    ad, bd = a.data, b.data

    def back(g, accum):
        accum(a, g * bd)
        accum(b, g * ad)

    return apply_op(out, (a, b), back, what="mul")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands: {a.shape} x {b.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    if bd.ndim != 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul batch extents disagree: {a.shape} x {b.shape}")
    out = ad @ bd

    def back(g, accum):
        accum(a, g @ np.swapaxes(bd, -1, -2))
        if bd.ndim == 2 and ad.ndim > 2:
            k = ad.shape[-1]
            n = g.shape[-1]
            accum(b, ad.reshape(-1, k).T @ g.reshape(-1, n))
        else:
            accum(b, np.swapaxes(ad, -1, -2) @ g)

    return apply_op(out, (a, b), back, what="matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one op, for 2-D or stacked ``x``, 2-D ``w`` and a bias vector."""
    xd, wd = x.data, w.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"linear operands disagree: {x.shape} x {w.shape}")
    if b.shape != wd.shape[1:]:
        raise ShapeError(f"linear bias {b.shape} does not match width {wd.shape[1]}")
    out = xd @ wd
    out += b.data

    def back(g, accum):
        k, n = wd.shape
        accum(x, g @ wd.T)
        accum(w, xd.reshape(-1, k).T @ g.reshape(-1, n))
        accum(b, _suffix_reduce(g, b.shape))

    return apply_op(out, (x, w, b), back, what="linear")


def transpose(a: Tensor, axis0: int = -2, axis1: int = -1) -> Tensor:
    """Swap two axes; by default the last two (a matrix transpose)."""
    nd = a.data.ndim
    if not (-nd <= axis0 < nd and -nd <= axis1 < nd):
        raise ShapeError(f"transpose axes ({axis0}, {axis1}) out of range for {a.shape}")
    out = np.swapaxes(a.data, axis0, axis1)

    def back(g, accum):
        # contiguous, so downstream reductions sum in the same order as for
        # any other gradient
        accum(a, np.ascontiguousarray(np.swapaxes(g, axis0, axis1)))

    return apply_op(np.ascontiguousarray(out), (a,), back, what="transpose")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def back(g, accum):
        accum(a, g.reshape(a.shape))

    return apply_op(np.ascontiguousarray(out), (a,), back, what="reshape")


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat needs at least one part")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]

    def back(g, accum):
        start = 0
        for p, s in zip(parts, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + s)
            accum(p, g[tuple(idx)])
            start += s

    return apply_op(out, tuple(parts), back, what="concat")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx_t = tuple(idx)
    out = np.ascontiguousarray(a.data[idx_t])

    def back(g, accum):
        buf = np.zeros_like(a.data)
        buf[idx_t] = g
        accum(a, buf)

    return apply_op(out, (a,), back, what="narrow")


def concat_rows(pieces: Sequence[tuple[Tensor, int, int]]) -> Tensor:
    """Rows ``start:start + length`` of each ``(tensor, start, length)``, stacked.

    One op where a ``concat`` of ``narrow``s takes one per piece; a tensor
    may appear in several pieces, and the same rows more than once.
    """
    out = np.concatenate([t.data[s:s + n] for t, s, n in pieces], axis=0)
    tensors = list({id(t): t for t, _, _ in pieces}.values())

    def back(g, accum):
        bufs = {id(t): np.zeros_like(t.data) for t in tensors}
        at = 0
        for t, s, n in pieces:
            bufs[id(t)][s:s + n] += g[at:at + n]
            at += n
        for t in tensors:
            accum(t, bufs[id(t)])

    return apply_op(out, tensors, back, what="concat_rows")


def segment_matmul(a: Tensor, b: Tensor, offsets: np.ndarray) -> Tensor:
    """``a @ b`` for a 2-D ``a``, one product per row run ``offsets[i]:offsets[i + 1]``.

    BLAS's matrix-vector kernels block rows, so a row's result can depend on
    the rows around it; a run's rows here get exactly the values a product
    of that run alone gives.
    """
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"segment_matmul needs 2-D operands: {a.shape} x {b.shape}")
    out = np.concatenate([ad[lo:hi] @ bd for lo, hi in zip(offsets[:-1], offsets[1:])],
                         axis=0)

    def back(g, accum):
        accum(a, g @ bd.T)
        accum(b, ad.T @ g)

    return apply_op(out, (a, b), back, what="matmul")


def take(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a 2-D table; ids may be any integer array."""
    ids = np.asarray(ids)
    if table.data.ndim != 2:
        raise ShapeError(f"take needs a 2-D table, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise AutodiffError(
            f"take ids out of range [0, {table.shape[0]}): {int(ids.min())}..{int(ids.max())}"
        )
    out = table.data[ids]

    def back(g, accum):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        accum(table, buf)

    return apply_op(out, (table,), back, what="take")


def bias_at(table: Tensor, labels: np.ndarray) -> Tensor:
    """Per-head biases from a [labels x heads] table.

    ``labels`` is [... x q x k]; the result is [... x heads x q x k], holding
    ``table[labels[..., i, j], h]`` at ``[..., h, i, j]``.
    """
    labels = np.asarray(labels)
    if table.data.ndim != 2:
        raise ShapeError(f"bias_at needs a 2-D table, got {table.shape}")
    if labels.ndim < 2:
        raise ShapeError(f"bias_at needs [... x q x k] labels, got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= table.shape[0]):
        raise AutodiffError(
            f"bias labels out of range [0, {table.shape[0]}): "
            f"{int(labels.min())}..{int(labels.max())}"
        )
    heads = table.shape[1]
    out = np.moveaxis(np.take(table.data.T, labels, axis=1), 0, -3)

    def back(g, accum):
        slots = labels[..., None, :, :] * heads + np.arange(heads)[:, None, None]
        flat = np.bincount(np.broadcast_to(slots, g.shape).ravel(), weights=g.ravel(),
                           minlength=table.size)
        accum(table, flat.reshape(table.shape))

    return apply_op(out, (table,), back, what="bias_at")


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())

    def back(g, accum):
        accum(a, np.broadcast_to(g, a.shape).astype(np.float64))

    return apply_op(out, (a,), back, what="sum_all")


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    nd = x.data.ndim
    if not (-nd <= axis < nd):
        raise ShapeError(f"softmax axis {axis} out of range for rank {nd}")
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g, accum):
        accum(x, y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return apply_op(y, (x,), back, what="softmax")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_D = 3 * 0.044715


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximated GELU, ``0.5 * x * (1 + tanh(c * (x + 0.044715 * x**3)))``."""
    xd = x.data.reshape(-1)
    t, y = np.empty_like(xd), np.empty_like(xd)
    scratch = np.empty(min(xd.size, BLOCK_ELEMENTS))
    for lo, hi in _blocks(xd.size, BLOCK_ELEMENTS):
        xb, tb, yb, s = xd[lo:hi], t[lo:hi], y[lo:hi], scratch[:hi - lo]
        np.multiply(xb, xb, out=s)
        np.multiply(s, xb, out=s)
        np.multiply(0.044715, s, out=s)
        np.add(xb, s, out=s)
        np.multiply(_GELU_C, s, out=s)
        np.tanh(s, out=tb)
        np.multiply(0.5, xb, out=yb)
        np.add(1.0, tb, out=s)
        np.multiply(yb, s, out=yb)

    def back(g, accum):
        gf = g.reshape(-1)
        dx = np.empty_like(xd)
        d_inner, a, b = (np.empty_like(scratch) for _ in range(3))
        for lo, hi in _blocks(xd.size, BLOCK_ELEMENTS):
            xb, tb, n = xd[lo:hi], t[lo:hi], hi - lo
            di, sa, sb = d_inner[:n], a[:n], b[:n]
            # d_inner = c * (1 + 3 * 0.044715 * x * x)
            np.multiply(xb, xb, out=di)
            np.multiply(_GELU_D, di, out=di)
            np.add(1.0, di, out=di)
            np.multiply(_GELU_C, di, out=di)
            # 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * d_inner
            np.multiply(tb, tb, out=sa)
            np.subtract(1.0, sa, out=sa)
            np.multiply(0.5, xb, out=sb)
            np.multiply(sb, sa, out=sb)
            np.multiply(sb, di, out=sb)
            np.add(1.0, tb, out=sa)
            np.multiply(0.5, sa, out=sa)
            np.add(sa, sb, out=sa)
            np.multiply(gf[lo:hi], sa, out=dx[lo:hi])
        accum(x, dx.reshape(x.shape))

    return apply_op(y.reshape(x.shape), (x,), back, what="gelu")


def layer_norm(x: Tensor, residual: Tensor, gain: Tensor, bias: Tensor,
               eps: float = 1e-6) -> Tensor:
    """Normalise each row of ``x + residual`` over the last axis, then scale by
    ``gain`` and shift by ``bias``; both summands get the same gradient."""
    d = x.shape[-1]
    if residual.shape != x.shape or gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm needs a residual of {x.shape} and gain/bias of "
                         f"({d},): {residual.shape}, {gain.shape}, {bias.shape}")
    xd, rd = x.data.reshape(-1, d), residual.data.reshape(-1, d)
    rows = xd.shape[0]
    step = max(1, BLOCK_ELEMENTS // d)
    xhat, y = np.empty_like(xd), np.empty_like(xd)
    inv = np.empty((rows, 1))
    scratch = np.empty((min(rows, step), d))
    for lo, hi in _blocks(rows, step):
        xh, s, ib, yb = xhat[lo:hi], scratch[:hi - lo], inv[lo:hi], y[lo:hi]
        np.add(xd[lo:hi], rd[lo:hi], out=s)
        np.subtract(s, s.mean(axis=-1, keepdims=True), out=xh)
        np.multiply(xh, xh, out=s)
        var = s.mean(axis=-1, keepdims=True)
        var += eps
        np.sqrt(var, out=var)
        np.divide(1.0, var, out=ib)
        np.multiply(xh, ib, out=xh)
        np.multiply(xh, gain.data, out=yb)
        np.add(yb, bias.data, out=yb)

    def back(g, accum):
        gf = g.reshape(-1, d)
        dx = np.empty_like(xd)
        dxh, tmp = np.empty_like(scratch), np.empty_like(scratch)
        # rows 1.. hold a block's g * xhat and row 0 the sum over the rows
        # before it, so the blocks sum row after row, as one sum over all
        # rows does
        carry = np.zeros((scratch.shape[0] + 1, d))
        for lo, hi in _blocks(rows, step):
            gb, xh, n = gf[lo:hi], xhat[lo:hi], hi - lo
            np.multiply(gb, xh, out=carry[1:n + 1])
            carry[0] = carry[:n + 1].sum(axis=0)
            # inv * (dxh - mean(dxh) - xhat * mean(dxh * xhat)), dxh = g * gain
            dh, t = dxh[:n], tmp[:n]
            np.multiply(gb, gain.data, out=dh)
            np.multiply(dh, xh, out=t)
            mean_dxh = dh.mean(axis=-1, keepdims=True)
            np.multiply(xh, t.mean(axis=-1, keepdims=True), out=t)
            np.subtract(dh, mean_dxh, out=dh)
            np.subtract(dh, t, out=dh)
            np.multiply(inv[lo:hi], dh, out=dx[lo:hi])
        accum(gain, carry[0])
        accum(bias, _suffix_reduce(g, bias.shape))
        accum(x, dx.reshape(x.shape))
        accum(residual, dx.reshape(x.shape))

    return apply_op(y.reshape(x.shape), (x, residual, gain, bias), back, what="layer_norm")


def cross_entropy(logits: Tensor, targets: Sequence[int],
                  spans: Sequence[tuple[int, int]] | None = None) -> Tensor:
    """Mean softmax cross entropy of the rows ``logits[start:start + length]``
    of ``spans`` (by default all of 1-D ``logits``), one per target: the rows'
    losses add in order, then scale by ``1 / len(targets)``."""
    if logits.data.ndim != 1:
        raise ShapeError(f"cross_entropy needs 1-D logits, got {logits.shape}")
    spans = [(0, logits.shape[0])] if spans is None else spans
    if not targets or len(spans) != len(targets):
        raise ShapeError(f"cross_entropy needs one span per target: {len(spans)} vs "
                         f"{len(targets)}")
    c, total, maxes = 1.0 / len(targets), None, []
    for (s, n), t in zip(spans, targets):
        if not (0 <= s and s + n <= logits.shape[0] and 0 <= t < n):
            raise AutodiffError(f"cross_entropy target {t} of span ({s}, {n}) out of range "
                                f"for {logits.shape[0]} logits")
        row = logits.data[s:s + n]
        maxes.append(row.max())
        loss = maxes[-1] + math.log(np.exp(row - maxes[-1]).sum()) - row[t]
        total = loss if total is None else total + loss

    def back(g, accum):
        gc, buf = g * c, np.zeros_like(logits.data)
        for (s, n), t, m in zip(spans, targets, maxes):
            p = np.exp(logits.data[s:s + n] - m)
            p /= p.sum()
            p[t] -= 1.0
            buf[s:s + n] += gc * p
        accum(logits, buf)

    return apply_op(np.asarray(total * c), (logits,), back, what="cross_entropy")


# ---------------------------------------------------------------------------
# parameter trees
# ---------------------------------------------------------------------------


def named_tensors(tree, prefix: str = "") -> dict[str, Tensor]:
    """Every tensor of a parameter tree by dotted path, in declaration order.

    A tree is a tensor, or a list, dict or dataclass of trees. List entries
    are named by index and ``None`` entries are skipped. These names and
    their order are the checkpoint format.
    """
    if isinstance(tree, Tensor):
        return {prefix: tree}
    if isinstance(tree, list):
        items = enumerate(tree)
    elif isinstance(tree, dict):
        items = tree.items()
    else:
        items = ((f.name, getattr(tree, f.name)) for f in fields(tree))
    out: dict[str, Tensor] = {}
    for key, sub in items:
        if sub is not None:
            out.update(named_tensors(sub, f"{prefix}.{key}" if prefix else str(key)))
    return out


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Bias-corrected Adam over one flat buffer per state, in payload order.

    ``flat`` holds the parameters in ``params`` order, each ``Tensor.data``
    rebound to its view, and ``m`` and ``v`` share its layout. ``step``
    gathers the gradients into ``grad``, reading a missing one as zeros, so
    a parameter that never gets one keeps its bits, then updates in place
    in blocks in the per-tensor formula's expression order.
    """

    beta1, beta2, epsilon = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], learning_rate: float):
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.steps = 0
        self.flat = np.concatenate([p.data.reshape(-1) for p in self.params.values()])
        self.m, self.v, self.grad = np.zeros((3, self.flat.size))
        self._scratch = np.empty((2, min(self.flat.size, BLOCK_ELEMENTS)))
        lo = 0
        for p in self.params.values():
            p.data = self.flat[lo: lo + p.size].reshape(p.shape)
            lo += p.size

    def step(self) -> None:
        np.concatenate([np.broadcast_to(0.0, p.size) if p.grad is None else p.grad.reshape(-1)
                        for p in self.params.values()], out=self.grad)
        self.steps += 1
        b1, b2, lr = self.beta1, self.beta2, self.learning_rate
        c1, c2 = 1.0 - b1**self.steps, 1.0 - b2**self.steps
        for lo, hi in _blocks(self.flat.size, BLOCK_ELEMENTS):
            p, m, v, g = (a[lo:hi] for a in (self.flat, self.m, self.v, self.grad))
            s, t = self._scratch[:, : hi - lo]
            # m = b1 * m + (1 - b1) * g, then v = b2 * v + (1 - b2) * g * g
            np.add(np.multiply(m, b1, out=m), np.multiply(g, 1.0 - b1, out=s), out=m)
            np.multiply(np.multiply(g, 1.0 - b2, out=s), g, out=s)
            np.add(np.multiply(v, b2, out=v), s, out=v)
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.multiply(np.divide(m, c1, out=s), lr, out=s)
            np.add(np.sqrt(np.divide(v, c2, out=t), out=t), self.epsilon, out=t)
            np.subtract(p, np.divide(s, t, out=s), out=p)
        _check_finite(self.flat, "Adam.step")

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
