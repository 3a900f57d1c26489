"""Reference copy of dense multi-head attention as the chain of ops that
``attention.dense_attention`` replaced, kept as a differential test oracle.

Each projection is split into heads by ``split_heads`` (reshape and
transpose nodes); the scores, scale, relative-position bias, additive key
mask, softmax and apply are one tape node each; and ``merge_heads`` puts the
heads back before the output projection.
"""

import math

import numpy as np
from autodiff_reference import add_const, scale

from stepsum.attention import MhaParams
from stepsum.autodiff import (
    MASK_NEG,
    Tensor,
    add,
    bias_at,
    linear,
    matmul,
    reshape,
    softmax,
    transpose,
)


def split_heads(x: Tensor, num_heads: int, *, keys_last: bool = False) -> Tensor:
    """[... x len x dim] -> [... x heads x len x head_dim].

    With ``keys_last`` the result is [... x heads x head_dim x len], the
    right-hand operand of a score matmul.
    """
    *lead, n, dim = x.shape
    if keys_last:
        return reshape(transpose(x), (*lead, num_heads, dim // num_heads, n))
    return transpose(reshape(x, (*lead, n, num_heads, dim // num_heads)), -3, -2)


def merge_heads(x: Tensor) -> Tensor:
    """[... x heads x len x head_dim] -> [... x len x heads*head_dim]."""
    *lead, heads, n, dh = x.shape
    return reshape(transpose(x, -3, -2), (*lead, n, heads * dh))


def multi_head_attention(q_in: Tensor, k_in: Tensor, v_in: Tensor, mask: np.ndarray,
                         params: MhaParams, num_heads: int,
                         labels: np.ndarray | None = None) -> Tensor:
    """``attention.multi_head_attention`` as a chain of one op per step."""
    dh = q_in.shape[-1] // num_heads
    lead = q_in.shape[:-2]
    q_len, k_len = q_in.shape[-2], k_in.shape[-2]
    allowed = np.asarray(mask, dtype=bool)

    q = split_heads(linear(q_in, params.wq, params.bq), num_heads)
    k_t = split_heads(linear(k_in, params.wk, params.bk), num_heads, keys_last=True)
    v = split_heads(linear(v_in, params.wv, params.bv), num_heads)

    s = scale(matmul(q, k_t), 1.0 / math.sqrt(dh))
    if labels is not None:
        s = add(s, bias_at(params.relpos,
                           np.broadcast_to(labels, lead + (q_len, k_len))))
    if not allowed.all():
        s = add_const(s, np.where(allowed, 0.0, MASK_NEG)[..., None, :, :])
    heads = matmul(softmax(s, axis=-1), v)
    return linear(merge_heads(heads), params.wo, params.bo)
