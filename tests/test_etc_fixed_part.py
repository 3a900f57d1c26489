"""The flat encoder's split first layer against the whole-layer stack.

``score_pairs`` computes layer 0's prefix-independent rows once per
(document, global kinds) key, the new keys of a call in one stream call,
and shares them across the pairs of a call, and across calls when it is
given a cache. Logits and every parameter
gradient must match ``tests/etc_reference.py`` (every layer whole, one
pair at a time) at 1e-12. The cases cover the rows and keys the split
turns on: a document that fills ``long_budget``, so its last rows (and, at
one layer, its last anchor) fall into the per-prefix part; table prefixes
with breaks, so the key changes along a plan; and a document whose globals
reach ``global_cap``, so the key stops changing.
"""

import numpy as np
import pytest
from autodiff_reference import reference_batch_loss
from conftest import pair_rows
from etc_reference import reference_etc_encode

from stepsum.acceptance import table3_game
from stepsum.autodiff import Tape, backward
from stepsum.config import config_from_dict
from stepsum.data import (
    Vocab,
    examples_from_plan,
    prepare_cnndm,
    prepare_rotowire,
    rotowire_corpus_sentences,
)
from stepsum.etc_encoder import StepwiseEtc, assemble_input, rows_near
from stepsum.models import assemble_for, batch_mean_loss, build_model, score_pairs
from stepsum.plan import BREAK_STEP, unit_step
from stepsum.rotowire import parse_game
from stepsum.synthetic import make_overfit_corpus

TOL = 1e-12
MODEL = dict(encoder="etc", dim=16, ffn_dim=32, max_sent_len=8, seed=3)


def document_case(layers, *, fill, global_cap):
    docs, _ = make_overfit_corpus(n_docs=2, n_sents=6, n_gold=2, sent_len=5, seed=3)
    vocab = Vocab.from_corpus(s for d in docs for s in d.sentences)
    preps = [prepare_cnndm(d, vocab, max_doc_sents=m, max_sent_len=8)
             for d, m in zip(docs, (6, 4))]
    # fill: the longer document's units take the long budget to its last slot
    long_budget = sum(len(u) for u in preps[0].units) if fill else 48
    # radius 5 puts the longer document's last anchor (5 tokens before [SEP])
    # into the per-prefix part
    cfg = config_from_dict(dict(MODEL, etc_layers=layers, long_budget=long_budget,
                                summary_budget=24, global_cap=global_cap,
                                local_radius=5 if fill else 3))
    plans = [[unit_step(0), unit_step(5), unit_step(2)], [unit_step(3), unit_step(1)]]
    batch = [ex for prep, plan in zip(preps, plans) for ex in examples_from_plan(prep, plan)]
    return cfg, vocab, batch


def table_case(layers):
    cfg = config_from_dict(dict(MODEL, task="rotowire", etc_layers=layers, max_sent_len=12,
                                max_plan_len=8, long_budget=240, summary_budget=60,
                                global_cap=64, local_radius=4, max_units=62))
    game = parse_game(table3_game())
    vocab = Vocab.from_corpus(rotowire_corpus_sentences([game], cfg.max_units))
    prep = prepare_rotowire(game, vocab, max_units=cfg.max_units,
                            max_sent_len=cfg.max_sent_len)
    c = prep.candidates[prep.special_count:]
    batch = examples_from_plan(prep, [c[0], BREAK_STEP, c[5], c[2], BREAK_STEP, c[1]])
    return cfg, vocab, batch


CASES = {
    "fills_long_budget": lambda layers: document_case(layers, fill=True, global_cap=32),
    "table_breaks": table_case,
    # [CLS], the stop unit and 4 of the 6 sentences: no plan globals at all
    "reaches_global_cap": lambda layers: document_case(layers, fill=False, global_cap=6),
}


def keys_of(cfg, vocab, batch):
    return [(id(ex.doc), assemble_for(cfg, vocab, ex.doc, ex.prefix).global_kind.tobytes())
            for ex in batch]


def gradients(model, loss_fn):
    params = model.named_parameters()
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
        backward(tape, loss)
    return loss.item(), {name: p.grad.copy() for name, p in params.items()}


def reference_mean_loss(model, cfg, vocab, batch):
    rows = [model.score_candidates(reference_etc_encode(
        model, [assemble_for(cfg, vocab, ex.doc, ex.prefix)])) for ex in batch]
    return reference_batch_loss(rows, [ex.target for ex in batch])


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_grouped_and_cached_scoring_match_whole_layers(monkeypatch, case, layers):
    cfg, vocab, batch = CASES[case](layers)
    model = build_model(cfg, len(vocab))
    pairs = [(ex.doc, ex.prefix) for ex in batch]
    keys = keys_of(cfg, vocab, batch)
    # the batch mixes keys, and some key is shared, so groups of one and of
    # several pairs both run
    assert 1 < len(set(keys)) < len(keys)
    first = batch[0].doc
    doc_keys = {k for (d, k) in keys if d == id(first)}
    if case == "reaches_global_cap":
        assert len(doc_keys) == 1
    elif case == "table_breaks":
        assert len(doc_keys) > 2  # each break opens a plan global
    else:
        asm = assemble_for(cfg, vocab, first, ())
        flat_end = 1 + cfg.long_budget
        last_doc_row = asm.position[asm.position < flat_end][-1]
        assert last_doc_row == flat_end - 1
        assert asm.position[asm.candidate_anchor[-1]] + cfg.local_radius >= flat_end

    calls = []
    fixed_parts = StepwiseEtc.fixed_parts

    def counted(self, assemblies):
        calls.append(assemblies)
        return fixed_parts(self, assemblies)

    monkeypatch.setattr(StepwiseEtc, "fixed_parts", counted)
    grouped = pair_rows(score_pairs(model, cfg, vocab, pairs))
    shared = {k for k in keys if keys.count(k) > 1}
    # one stream call computes the fixed part of every shared key
    assert [len(c) for c in calls] == [len(shared)]
    calls.clear()
    cache: dict = {}
    half = len(pairs) // 2
    cached = [row for part in (pairs[:half], pairs[half:], pairs)
              for row in pair_rows(score_pairs(model, cfg, vocab, part, cache))]
    # each key once, at most one call per scoring call, none once all are
    # cached; an empty prefix's key only through a longer prefix, since no
    # two pairs of one call share it
    assert len(calls) <= 2
    prefixed = {k for (_, prefix), k in zip(pairs, keys) if prefix}
    assert sum(len(c) for c in calls) == len(cache) == len(prefixed)
    got_grads = gradients(model, lambda: batch_mean_loss(model, cfg, vocab, batch))

    want = [model.score_candidates(reference_etc_encode(
        model, [assemble_for(cfg, vocab, doc, prefix)])).data for doc, prefix in pairs]
    for g, c, w in zip(grouped, cached[:len(pairs)], want):
        np.testing.assert_allclose(g, w, rtol=0, atol=TOL)
        np.testing.assert_allclose(c, w, rtol=0, atol=TOL)
    for c, w in zip(cached[len(pairs):], want):
        np.testing.assert_allclose(c, w, rtol=0, atol=TOL)

    loss, grads = got_grads
    ref_loss, ref_grads = gradients(model, lambda: reference_mean_loss(model, cfg, vocab,
                                                                        batch))
    assert loss == pytest.approx(ref_loss, rel=0, abs=TOL)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=TOL,
                                   err_msg=name)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("layers", [1, 2])
def test_lone_computed_row_keeps_bits(layers, seed):
    """A split that leaves exactly one row read past the fixed part.

    Layer 0 queries from the anchors in a one-layer stack, and from the
    rows within r of an anchor in a two-layer one. Here one of those rows
    lies past the fixed rows, so a pair with a fixed part would leave one
    row for layer 0 to compute (and for layer 1 to project). A one-row
    product takes BLAS's matrix-vector path and other bits, so alone, with
    its fixed part and inside a stream beside another pair, the pair's
    candidate vectors must equal the one-pair forward bitwise, and its
    logits ``tests/etc_reference.py`` at 1e-12.
    """
    cfg = config_from_dict(dict(encoder="etc", dim=64, num_heads=2, ffn_dim=64,
                                etc_layers=layers, long_budget=20, summary_budget=10,
                                global_cap=8, local_radius=3, relpos_vocab_size=12,
                                relpos_max_distance=4))
    model = StepwiseEtc(cfg, 30, np.random.default_rng(seed))
    ids = dict(cls_id=5, sep_id=6, beg_id=4, eos_id=3)

    def assemble(sizes, plan_units):
        tokens = iter(range(7, 30))
        return assemble_input([[next(tokens) for _ in range(n)] for n in sizes], plan_units,
                              [[2]], 1, long_budget=20, summary_budget=10, global_cap=8,
                              **ids)

    # [CLS] and the special unit, then units from position 2; a row is fixed
    # when p + 3 < 21. Two layers: the last anchor (15) reads up to row 18,
    # the one row not fixed. One layer: the last anchor (18) is not fixed.
    lone = assemble([6, 7, 4] if layers == 2 else [6, 10, 3], [[16, 17], [3]])
    other = assemble([3, 13, 1, 2], [[10, 11, 12]])  # its anchors 18 and 19 are not fixed
    r, flat_end = cfg.local_radius, 1 + cfg.long_budget

    def read(asm):
        anchors = asm.candidate_anchor
        rows = anchors if layers == 1 else rows_near(asm.position, anchors, r)
        return int((asm.position[rows] + r >= flat_end).sum())

    assert (read(lone), read(other) > 1) == (1, True)

    want = model.etc_encode([lone]).data
    ref = model.score_candidates(reference_etc_encode(model, [lone])).data
    np.testing.assert_allclose(model.logits([lone]).data, ref, rtol=0, atol=TOL)
    fixed = model.fixed_parts([lone, other])
    assert all(f is not None for f in fixed)
    n = want.shape[0]
    got = {
        "with its fixed part": model.etc_encode([lone], model.fixed_parts([lone])).data,
        "inside a stream": model.etc_encode([lone, other], fixed).data[:n],
        "last of a stream": model.etc_encode([other, lone], fixed[::-1]).data[-n:],
    }
    for how, vectors in got.items():
        assert np.array_equal(vectors, want), how


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lone_fixed_row_is_not_carried(seed):
    """An assembly with one fixed query row gets no fixed part: that row alone
    in the fixed-part call would take BLAS's matrix-vector path, so the
    pair's candidate vectors stay those of the one-pair forward."""
    cfg = config_from_dict(dict(encoder="etc", dim=64, num_heads=2, ffn_dim=64,
                                etc_layers=1, long_budget=20, summary_budget=10,
                                global_cap=8, local_radius=3, relpos_vocab_size=12,
                                relpos_max_distance=4))
    model = StepwiseEtc(cfg, 30, np.random.default_rng(seed))
    # no candidate special; units at positions 2-17, 18 and 19-20, so the
    # anchor at 2 is the one fixed query row (p + 3 < 21)
    asm = assemble_input([list(range(7, 23)), [23], [24, 25]], [[7]], [[2]], 0,
                         long_budget=20, summary_budget=10, global_cap=8,
                         cls_id=5, sep_id=6, beg_id=4, eos_id=3)
    assert asm.position[asm.candidate_anchor].tolist() == [2, 18, 19]
    fixed = model.fixed_parts([asm])
    assert fixed == [None]
    assert np.array_equal(model.etc_encode([asm], fixed).data, model.etc_encode([asm]).data)
