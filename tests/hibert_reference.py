"""Reference copies of hierarchical forwards that faster paths replaced,
kept as differential test oracles: the one-pair document forward that the
padded batch pass replaced, and the all-token sentence stack that the
token-0 last layer replaced.

The one-pair forward scores one (document, plan prefix) pair: the document
stream is the unit vectors plus their document positions, the summary
stream the begin slot plus the unit vectors of the prefix's steps, and
neither is padded, so ``encode_document_stepwise`` runs with all-true masks.
"""

import numpy as np

from stepsum.attention import multi_head_attention, post_norm_block
from stepsum.autodiff import add, concat, narrow, reshape, take


def reference_logits(model, units, prefix, special_count, break_slot=None,
                     unit_reps=None):
    """Candidate logits given the document's units and a plan prefix.

    ``units`` lists the pseudo-units first (stop marker, and the sentence
    break marker in table mode), then the real units. ``break_slot`` is the
    row index of the break pseudo-unit, used to represent break steps on the
    summary side. ``unit_reps`` short-circuits the sentence encoder when the
    caller already holds the unit vectors.
    """
    emb = model.params.embeddings
    rows = model.summary_rows(prefix, special_count, break_slot)
    reps = unit_reps if unit_reps is not None else model.unit_representations(units)
    n = reps.shape[0]
    if n > model.cfg.max_doc_sents:
        raise ValueError(f"{n} units exceed max_doc_sents {model.cfg.max_doc_sents}")
    d = add(reps, take(emb.pos_doc, np.arange(n))) if model.cfg.doc_positions_enabled() else reps
    if rows:
        s = concat([emb.begin_summary, take(reps, np.asarray(rows, dtype=np.int64))],
                   axis=0)
    else:
        s = emb.begin_summary
    s = add(s, take(emb.pos_sum, np.arange(len(rows) + 1)))
    return model.score_candidates(model.encode_document_stepwise(
        d, s, np.ones(n, dtype=bool), np.ones(s.shape[0], dtype=bool)))


def reference_encode_sentences(model, batch):
    """Unit vectors from the all-token sentence stack: every layer computes
    every token, and token 0 is pooled at the end."""
    cfg = model.cfg
    n, width = batch.token_ids.shape
    x = take(model.params.embeddings.token, batch.token_ids)
    x = add(x, take(model.params.embeddings.pos_token, np.arange(width)))
    valid = np.arange(width)[None, :] < batch.lengths[:, None]
    mask = np.broadcast_to(valid[:, None, :], (n, width, width))
    for layer in model.params.sent_layers:
        a = multi_head_attention(x, x, x, mask, layer.attn, cfg.num_heads)
        x = post_norm_block(x, a, layer.ln_attn, layer.ffn, layer.ln_ffn)
    return reshape(narrow(x, 1, 0, 1), (n, cfg.dim))
