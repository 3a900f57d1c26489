"""Reference copy of the one-pair hierarchical forward that the padded
batch pass replaced, kept as a differential test oracle.

It scores one (document, plan prefix) pair: the document stream is the
unit vectors plus their document positions, the summary stream the begin
slot plus the unit vectors of the prefix's steps, and neither is padded,
so ``encode_document_stepwise`` runs without masks.
"""

import numpy as np

from stepsum.autodiff import add, concat, take


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
    d = add(reps, take(emb.pos_doc, np.arange(n))) if model.cfg.use_doc_pos else reps
    if rows:
        s = concat([emb.begin_summary, take(reps, np.asarray(rows, dtype=np.int64))],
                   axis=0)
    else:
        s = emb.begin_summary
    s = add(s, take(emb.pos_sum, np.arange(len(rows) + 1)))
    return model.score_candidates(model.encode_document_stepwise(d, s))
