"""Reference copies of a global-local layer as the chains of ops that
``attention.glocal_attention`` replaced, kept as differential test oracles.

The long stream's chain: band scores and global scores, concatenated,
scaled, biased and masked as separate tape nodes, one per-example softmax,
then the band and global weights narrowed back apart and applied by two
more ops. These ops take the heads as a leading array axis, [heads x rows x
d], as the layer once did: ``glocal_attention`` here splits each projection
into heads with ``split_heads`` (reshape and transpose nodes), runs the long
chain and the head-axis ``global_attention`` below, and merges the heads
back with ``merge_heads`` before the output projection.
"""

import math

import numpy as np
from autodiff_reference import add_const, scale
from dense_reference import merge_heads, split_heads

from stepsum.attention import (
    BAND_BLOCK,
    AttentionConfig,
    BandPattern,
    MhaParams,
    Segments,
    _spans,
    _swap,
    band_labels,
    band_pattern,
    bucket_matrix,
    membership_labels,
)
from stepsum.autodiff import (
    MASK_NEG,
    Tensor,
    add,
    apply_op,
    bias_at,
    concat,
    linear,
    narrow,
)


def _offset_slices(pat: BandPattern):
    """(slot, query index, key index) of every window offset some query has.

    Queries go in blocks of at most ``BAND_BLOCK`` rows, every offset of a
    block before the next block; a query's slots still come in offset
    order. Runs of consecutive query rows index with slices, scattered
    query rows with integer arrays.
    """
    n, r = pat.length, pat.radius
    if pat.runs is not None:
        for q0, r0, size in pat.runs:
            for b0 in range(0, size, BAND_BLOCK):
                b1 = min(size, b0 + BAND_BLOCK)
                for w in range(pat.width):
                    lo, hi = max(b0, r - w - r0), min(b1, n + r - w - r0)
                    if lo < hi:
                        yield (w, slice(q0 + lo, q0 + hi),
                               slice(r0 + lo + w - r, r0 + hi + w - r))
        return
    for b0 in range(0, pat.rows.size, BAND_BLOCK):
        rows = pat.rows[b0:b0 + BAND_BLOCK]
        for w in range(pat.width):
            keys = rows + w - r
            qi = np.flatnonzero((keys >= 0) & (keys < n))
            if qi.size:
                yield w, b0 + qi, keys[qi]


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
    """The long stream composed from the ops above, on head-axis operands.

    ``ql`` is [heads x queries x d], ``kl``/``vl`` are [heads x long x d],
    ``kg_t`` is [heads x d x globals] and ``vg`` [heads x globals x d]; the
    result is [heads x queries x d]. The other arguments are those of
    ``attention.long_attention``.
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


def global_attention(qg: Tensor, kg_t: Tensor, vg: Tensor, kl: Tensor, vl: Tensor,
                     relpos: Tensor, segments: Segments, sentence_id: np.ndarray,
                     cfg: AttentionConfig, enable_long_global: bool = True) -> Tensor:
    """The global part on head-axis operands, one op, labels saved for backward.

    ``qg``/``vg`` are [heads x globals x d], ``kg_t`` is [heads x d x
    globals] and ``kl``/``vl`` are [heads x long x d]; the result is [heads
    x globals x d]. The other arguments are those of
    ``attention.global_attention``.
    """
    qd, kgd, vgd, kld, vld = qg.data, kg_t.data, vg.data, kl.data, vl.data
    table = relpos.data
    heads = table.shape[1]
    inv_sqrt = 1.0 / math.sqrt(qd.shape[-1])
    out = np.zeros_like(qd)
    saved = []
    for b in range(segments.glob.size - 1):
        gs = slice(segments.glob[b], segments.glob[b + 1])
        ls = slice(segments.long[b], segments.long[b + 1])
        n = gs.stop - gs.start
        labels = np.concatenate(
            [bucket_matrix(np.arange(n), np.arange(n), cfg.max_distance),
             membership_labels(sentence_id[ls], n, cfg).T], axis=1)
        s = np.concatenate([qd[:, gs] @ kgd[:, :, gs],
                            qd[:, gs] @ np.ascontiguousarray(_swap(kld[:, ls]))], axis=-1)
        s = s * inv_sqrt + np.moveaxis(np.take(table.T, labels, axis=1), 0, -3)
        if not enable_long_global:
            s[..., n:] += MASK_NEG
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        y = e / e.sum(axis=-1, keepdims=True)
        out[:, gs] = (np.ascontiguousarray(y[..., :n]) @ vgd[:, gs]
                      + np.ascontiguousarray(y[..., n:]) @ vld[:, ls])
        saved.append((gs, ls, n, labels, y))

    def back(g, accum):
        grads = [np.zeros_like(a) for a in (qd, kgd, vgd, kld, vld)]
        gq, gkg, gvg, gkl, gvl = grads
        g_table = np.zeros(table.size)
        for gs, ls, n, labels, y in saved:
            go = g[:, gs]
            gvg[:, gs] = _swap(y[..., :n]) @ go
            gvl[:, ls] = _swap(y[..., n:]) @ go
            gy = np.concatenate([go @ _swap(vgd[:, gs]), go @ _swap(vld[:, ls])], axis=-1)
            gs_ = y * (gy - (gy * y).sum(axis=-1, keepdims=True))
            slots = labels[None] * heads + np.arange(heads)[:, None, None]
            g_table += np.bincount(slots.ravel(), weights=gs_.ravel(), minlength=table.size)
            gs_ *= inv_sqrt
            gq[:, gs] = gs_[..., :n] @ _swap(kgd[:, :, gs]) + gs_[..., n:] @ kld[:, ls]
            gkg[:, :, gs] = _swap(qd[:, gs]) @ gs_[..., :n]
            gkl[:, ls] = _swap(gs_[..., n:]) @ qd[:, gs]
        for t, grad in zip((qg, kg_t, vg, kl, vl), grads):
            accum(t, grad)
        accum(relpos, g_table.reshape(table.shape))

    return apply_op(out, (qg, kg_t, vg, kl, vl, relpos), back, what="global_attention")


def glocal_attention(long: Tensor, glob: Tensor, sentence_id: np.ndarray,
                     params: MhaParams, cfg: AttentionConfig, *,
                     enable_long_global: bool = True,
                     pattern: BandPattern | None = None,
                     update_global: bool = True,
                     segments: Segments | None = None) -> tuple[Tensor, Tensor | None]:
    """``attention.glocal_attention`` with heads split and merged around head-axis ops.

    Same arguments and results, inputs taken as valid.
    """
    L, G = long.shape[0], glob.shape[0]
    seg = segments or Segments.of([L], [G])
    g_size = np.diff(seg.glob)
    pat = pattern or band_pattern(np.arange(L), cfg.local_radius)
    rows = np.arange(L) if pat.rows is None else pat.rows
    q_off = np.searchsorted(rows, seg.long)

    H = cfg.num_heads
    ql = split_heads(linear(pat.query_rows(long), params.wq, params.bq), H)
    kl = split_heads(linear(long, params.wk, params.bk), H)
    vl = split_heads(linear(long, params.wv, params.bv), H)
    qg = split_heads(linear(glob, params.wq, params.bq), H) if update_global else None
    kg_t = split_heads(linear(glob, params.wk, params.bk), H, keys_last=True)
    vg = split_heads(linear(glob, params.wv, params.bv), H)

    long_labels = np.concatenate(
        [band_labels(pat, cfg.max_distance),
         membership_labels(sentence_id[rows], int(g_size.max()), cfg)], axis=1)
    long_heads = long_attention(ql, kl, vl, kg_t, vg, params.relpos, pat, q_off, seg.glob,
                                long_labels, enable_long_global)
    long_out = linear(merge_heads(long_heads), params.wo, params.bo)
    if not update_global:
        return long_out, None

    glob_heads = global_attention(qg, kg_t, vg, kl, vl, params.relpos, seg, sentence_id,
                                  cfg, enable_long_global)
    return long_out, linear(merge_heads(glob_heads), params.wo, params.bo)
