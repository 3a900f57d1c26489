"""Reference copy of the long stream of a global-local layer as the chain of
ops that ``attention.long_attention`` replaced, kept as a differential test
oracle.

The chain: band scores and global scores, concatenated, scaled, biased and
masked as separate tape nodes, one per-example softmax, then the band and
global weights narrowed back apart and applied by two more ops.
"""

import math

import numpy as np

from stepsum.attention import BandPattern, _offset_slices, _spans, _swap
from stepsum.autodiff import (
    MASK_NEG,
    Tensor,
    add,
    add_const,
    apply_op,
    bias_at,
    concat,
    narrow,
    scale,
)


def banded_scores(q: Tensor, k: Tensor, pat: BandPattern) -> Tensor:
    """Windowed scores [heads x queries x (2r+1)].

    Queries are [heads x queries x d] and keys [heads x length x d]. Each
    window offset is one product over the queries that have that neighbour.
    Invalid slots hold the mask value and pass no gradient.
    """
    if (q.data.ndim != 3 or k.data.ndim != 3 or q.shape[0::2] != k.shape[0::2]
            or q.shape[1] != pat.valid.shape[0] or k.shape[1] != pat.length):
        raise ValueError(f"banded_scores got shapes {q.shape}, {k.shape}")
    qd, kd = q.data, k.data
    out = np.full((q.shape[0], *pat.valid.shape), MASK_NEG)
    for w, qi, kj in _offset_slices(pat):
        out[:, qi, w] = np.einsum("hnd,hnd->hn", qd[:, qi], kd[:, kj])
    out[:, ~pat.valid] = MASK_NEG

    def back(g, accum):
        g = np.where(pat.valid, g, 0.0)
        gq, gk = np.zeros_like(qd), np.zeros_like(kd)
        for w, qi, kj in _offset_slices(pat):
            gw = g[:, qi, w, None]
            gq[:, qi] += gw * kd[:, kj]
            gk[:, kj] += gw * qd[:, qi]
        accum(q, gq)
        accum(k, gk)

    return apply_op(out, (q, k), back, what="banded_scores")


def banded_apply(weights: Tensor, v: Tensor, pat: BandPattern) -> Tensor:
    """Weighted sum of windowed values per head.

    ``out[h, j] = sum_w weights[h, j, w] * v[h, i + w - r]`` over the valid
    slots of the query at row ``i``, for [heads x queries x (2r+1)] weights
    and [heads x length x d] values; invalid slots count as zero weight.
    """
    heads = v.shape[0]
    if (weights.shape != (heads, *pat.valid.shape) or v.data.ndim != 3
            or v.shape[1] != pat.length):
        raise ValueError(f"banded_apply got shapes {weights.shape}, {v.shape}")
    wd, vd = np.where(pat.valid, weights.data, 0.0), v.data
    out = np.zeros((heads, pat.valid.shape[0], vd.shape[2]))
    for w, qi, kj in _offset_slices(pat):
        out[:, qi] += wd[:, qi, w, None] * vd[:, kj]

    def back(g, accum):
        gw, gv = np.zeros_like(wd), np.zeros_like(vd)
        for w, qi, kj in _offset_slices(pat):
            gw[:, qi, w] = np.einsum("hnd,hnd->hn", g[:, qi], vd[:, kj])
            gv[:, kj] += wd[:, qi, w, None] * g[:, qi]
        accum(weights, np.where(pat.valid, gw, 0.0))
        accum(v, gv)

    return apply_op(out, (weights, v), back, what="banded_apply")


def global_scores(q: Tensor, k_t: Tensor, q_off: np.ndarray, g_off: np.ndarray) -> Tensor:
    """Long-to-global scores [heads x queries x G], G the most globals of an example.

    The queries ``q_off[b]:q_off[b + 1]`` of [heads x queries x d] take one
    product with their example's key columns ``g_off[b]:g_off[b + 1]`` of
    [heads x d x globals]. Slots past an example's own globals hold the mask
    value and pass no gradient.
    """
    qd, kd = q.data, k_t.data
    spans = list(_spans(q_off, g_off))
    out = np.full((qd.shape[0], qd.shape[1], int(np.diff(g_off).max())), MASK_NEG)
    for qs, gs, n in spans:
        out[:, qs, :n] = qd[:, qs] @ kd[:, :, gs]

    def back(g, accum):
        gq, gk = np.zeros_like(qd), np.zeros_like(kd)
        for qs, gs, n in spans:
            gw = g[:, qs, :n]
            gq[:, qs] = gw @ _swap(kd[:, :, gs])
            gk[:, :, gs] = _swap(qd[:, qs]) @ gw
        accum(q, gq)
        accum(k_t, gk)

    return apply_op(out, (q, k_t), back, what="global_scores")


def global_apply(weights: Tensor, v: Tensor, q_off: np.ndarray, g_off: np.ndarray) -> Tensor:
    """Weighted sum of each example's global values per head.

    The queries ``q_off[b]:q_off[b + 1]`` of [heads x queries x G] weights
    take their first ``n`` slots, ``n`` their example's global count, over
    its values ``g_off[b]:g_off[b + 1]`` of [heads x globals x d]; the other
    slots are ignored.
    """
    wd, vd = weights.data, v.data
    spans = list(_spans(q_off, g_off))
    out = np.zeros((wd.shape[0], wd.shape[1], vd.shape[2]))
    for qs, gs, n in spans:
        out[:, qs] = np.ascontiguousarray(wd[:, qs, :n]) @ vd[:, gs]

    def back(g, accum):
        gw, gv = np.zeros_like(wd), np.zeros_like(vd)
        for qs, gs, n in spans:
            gw[:, qs, :n] = g[:, qs] @ _swap(vd[:, gs])
            gv[:, gs] = _swap(wd[:, qs, :n]) @ g[:, qs]
        accum(weights, gw)
        accum(v, gv)

    return apply_op(out, (weights, v), back, what="global_apply")


def segment_softmax(x: Tensor, q_off: np.ndarray, live: np.ndarray) -> Tensor:
    """Softmax over the last axis of [heads x queries x slots], per example.

    The queries ``q_off[b]:q_off[b + 1]`` normalise over their first
    ``live[b]`` slots alone and give the others weight 0, so each row sums
    exactly the slots it would sum in its example on its own.
    """
    xd = x.data
    y = np.zeros_like(xd)
    for b in range(live.size):
        rows, cols = slice(q_off[b], q_off[b + 1]), slice(0, live[b])
        xs = xd[:, rows, cols]
        e = np.exp(xs - xs.max(axis=-1, keepdims=True))
        y[:, rows, cols] = e / e.sum(axis=-1, keepdims=True)

    def back(g, accum):
        accum(x, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return apply_op(y, (x,), back, what="softmax")


def long_attention(ql: Tensor, kl: Tensor, vl: Tensor, kg_t: Tensor, vg: Tensor,
                   relpos: Tensor, pattern: BandPattern, q_off: np.ndarray,
                   g_off: np.ndarray, labels: np.ndarray,
                   enable_long_global: bool = True) -> Tensor:
    """The long stream as ``glocal_attention`` composed it from the ops above.

    Same arguments and result as ``attention.long_attention``.
    """
    W, g_size = pattern.width, np.diff(g_off)
    width = int(g_size.max())
    inv_sqrt = 1.0 / math.sqrt(ql.shape[-1])
    s_long = concat([banded_scores(ql, kl, pattern), global_scores(ql, kg_t, q_off, g_off)],
                    axis=-1)
    s_long = add(scale(s_long, inv_sqrt), bias_at(relpos, labels))
    if not enable_long_global:
        long_mask = np.zeros((ql.shape[1], W + width))
        long_mask[:, W:] = MASK_NEG
        s_long = add_const(s_long, long_mask)
    a = segment_softmax(s_long, q_off, W + g_size)
    return add(banded_apply(narrow(a, -1, 0, W), vl, pattern),
               global_apply(narrow(a, -1, W, width), vg, q_off, g_off))
