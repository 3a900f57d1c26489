"""The one scoring path against the one-pair hierarchical forward it replaced.

A batch mixes documents of different unit counts and prefixes of different
lengths, so most rows are padded on the document side, the summary side or
both. Per-pair logits and the parameter gradients of ``batch_mean_loss``
must match the reference at 1e-12, and rows that need no padding must
match it bitwise. The reference gets the same unit vectors, sliced from one
joint sentence-encoder pass, as the training step did before the padded
pass.
"""

import numpy as np
import pytest
from autodiff_reference import reference_batch_loss
from conftest import pair_rows
from hibert_reference import reference_logits

from stepsum.acceptance import table3_game
from stepsum.autodiff import Tape, Tensor, backward, narrow
from stepsum.config import config_from_dict
from stepsum.data import (
    Vocab,
    examples_from_plan,
    prepare_cnndm,
    prepare_rotowire,
    rotowire_corpus_sentences,
)
from stepsum.models import batch_mean_loss, build_model, score_pairs
from stepsum.plan import BREAK_STEP, unit_step
from stepsum.rotowire import parse_game
from stepsum.synthetic import make_overfit_corpus

TOL = 1e-12


def doc_batch():
    cfg = config_from_dict(dict(encoder="hibert", dim=16, ffn_dim=32, sent_layers=1,
                                doc_layers=2, max_sent_len=8, max_doc_sents=16, seed=3))
    docs, _ = make_overfit_corpus(n_docs=3, n_sents=7, n_gold=2, sent_len=5, seed=3)
    vocab = Vocab.from_corpus(s for d in docs for s in d.sentences)
    preps = [prepare_cnndm(d, vocab, max_doc_sents=m, max_sent_len=cfg.max_sent_len)
             for d, m in zip(docs, (7, 4, 5))]
    plans = [[unit_step(0), unit_step(5), unit_step(2)], [unit_step(3)],
             [unit_step(1), unit_step(4)]]
    examples = [ex for prep, plan in zip(preps, plans)
                for ex in examples_from_plan(prep, plan)]
    # every document, every prefix length 0..3, in an interleaved order
    batch = [examples[i] for i in (0, 5, 3, 7, 1, 6, 2, 8, 4)]
    return cfg, vocab, build_model(cfg, len(vocab)), batch


def table_batch():
    cfg = config_from_dict(dict(task="rotowire", encoder="hibert", dim=16, ffn_dim=32,
                                sent_layers=1, doc_layers=2, max_sent_len=12,
                                max_doc_sents=64, max_plan_len=8, max_units=62, seed=5))
    small = table3_game()
    small["id"] = "table3-one-player"
    small["players"] = small["players"][:1]
    games = [parse_game(table3_game()), parse_game(small)]
    vocab = Vocab.from_corpus(rotowire_corpus_sentences(games, cfg.max_units))
    preps = [prepare_rotowire(g, vocab, max_units=cfg.max_units,
                              max_sent_len=cfg.max_sent_len) for g in games]
    assert preps[0].n_real_units > preps[1].n_real_units
    c0 = preps[0].candidates[preps[0].special_count:]
    c1 = preps[1].candidates[preps[1].special_count:]
    plans = [[c0[0], BREAK_STEP, c0[5], c0[2], BREAK_STEP], [c1[3], BREAK_STEP, c1[1]]]
    examples = [ex for prep, plan in zip(preps, plans)
                for ex in examples_from_plan(prep, plan)]
    return cfg, vocab, build_model(cfg, len(vocab)), examples[::-1]


def reference_rows(model, batch):
    """One-pair forwards on unit vectors from one joint sentence pass."""
    docs = list({id(ex.doc): ex.doc for ex in batch}.values())
    reps = model.unit_representations([u for d in docs for u in d.units])
    start, offsets = 0, {}
    for d in docs:
        offsets[id(d)] = start
        start += len(d.units)
    return [reference_logits(model, ex.doc.units, ex.prefix, ex.doc.special_count,
                             ex.doc.break_slot,
                             unit_reps=narrow(reps, 0, offsets[id(ex.doc)],
                                              len(ex.doc.units)))
            for ex in batch]


def gradients(model, loss_fn):
    params = model.named_parameters()
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
        backward(tape, loss)
    # tables a mode never reads (document positions in table mode) get none
    return loss.item(), {name: p.grad.copy() for name, p in params.items()
                         if p.grad is not None}


def reference_mean_loss(model, batch):
    return reference_batch_loss(reference_rows(model, batch), [ex.target for ex in batch])


@pytest.mark.parametrize("setup", [doc_batch, table_batch], ids=["document", "table"])
def test_padded_pass_matches_one_pair_reference(setup):
    cfg, vocab, model, batch = setup()
    pairs = [(ex.doc, ex.prefix) for ex in batch]
    got = pair_rows(score_pairs(model, cfg, vocab, pairs))
    want = reference_rows(model, batch)
    width = max(len(ex.doc.units) for ex in batch)
    depth = max(len(ex.prefix) for ex in batch)
    unpadded = 0
    for ex, g, w in zip(batch, got, want):
        assert g.shape == (len(ex.doc.units),)
        np.testing.assert_allclose(g, w.data, rtol=0, atol=TOL)
        if len(ex.doc.units) == width and len(ex.prefix) == depth:
            unpadded += 1
            assert np.array_equal(g, w.data), ex.prefix
    assert unpadded >= 1
    # and the test has padding on both sides to exercise
    assert len({len(ex.doc.units) for ex in batch}) > 1
    assert len({len(ex.prefix) for ex in batch}) > 1

    loss, grads = gradients(model, lambda: batch_mean_loss(model, cfg, vocab, batch))
    ref_loss, ref_grads = gradients(model, lambda: reference_mean_loss(model, batch))
    assert loss == pytest.approx(ref_loss, abs=TOL)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=TOL,
                                   err_msg=name)


def test_batch_without_padding_is_bitwise_one_pair_passes():
    cfg, vocab, model, batch = table_batch()
    doc = batch[-1].doc
    c = doc.candidates[doc.special_count:]
    prefixes = [(c[0], BREAK_STEP), (c[3], c[1]), (BREAK_STEP, c[2]), (c[4], c[0])]
    reps = model.unit_representations(doc.units)
    got = pair_rows(score_pairs(model, cfg, vocab, [(doc, p) for p in prefixes],
                                {(id(doc),): reps}))
    for prefix, row in zip(prefixes, got):
        want = reference_logits(model, doc.units, prefix, doc.special_count,
                                doc.break_slot, unit_reps=reps)
        assert np.array_equal(row, want.data), prefix


def test_masked_keys_never_reach_real_rows():
    """Whatever the padding rows hold, the real rows' logits stay put."""
    cfg, vocab, model, batch = doc_batch()
    reps = model.unit_representations(batch[0].doc.units)
    n = reps.shape[0]
    # padding gathers unit row 0, which only the second document holds
    docs = [range(1, n - 1), range(n)]
    a = model.logits_batch(reps, docs, [[], [2, 1]]).data
    poisoned = Tensor(reps.data.copy())
    poisoned.data[0] = 1e3
    b = model.logits_batch(poisoned, docs, [[], [2, 1]]).data
    np.testing.assert_array_equal(a[0, : n - 2], b[0, : n - 2])
    assert not np.allclose(a[1], b[1])
