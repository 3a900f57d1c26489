"""The flat encoder's one-stream scoring against one pair at a time.

``score_pairs`` lays every flat-encoder pair of a call end to end in one
stream and encodes it in one ``etc_encode`` call, plus at most one
``fixed_parts`` call for the keys it has not seen. Every pair's logits must
equal the one-pair ``model.logits`` bitwise, whatever else the stream holds,
and every parameter gradient of a stream batch must match
``tests/etc_reference.py`` (every layer whole, one pair at a time) at 1e-12.
"""

import numpy as np
import pytest
from autodiff_reference import reference_batch_loss
from conftest import pair_rows
from etc_reference import reference_etc_encode

from stepsum import attention
from stepsum.acceptance import table3_game
from stepsum.autodiff import Tape, active_tape, backward
from stepsum.config import config_from_dict
from stepsum.data import (
    Vocab,
    examples_from_plan,
    prepare_cnndm,
    prepare_rotowire,
    rotowire_corpus_sentences,
)
from stepsum.etc_encoder import StepwiseEtc
from stepsum.models import (
    assemble_for,
    batch_mean_loss,
    build_model,
    score_pairs,
    trim_for_flat_budget,
)
from stepsum.plan import BREAK_STEP, unit_step
from stepsum.rotowire import parse_game
from stepsum.synthetic import make_overfit_corpus

TOL = 1e-12
MODEL = dict(encoder="etc", dim=16, ffn_dim=32, max_sent_len=8, seed=3)


def documents(layers=2, *, radius=3, long_budget=48, global_cap=32, sizes=(6, 4, 3)):
    """Three documents of different lengths, so of different global counts."""
    docs, _ = make_overfit_corpus(n_docs=3, n_sents=6, n_gold=2, sent_len=5, seed=3)
    vocab = Vocab.from_corpus(s for d in docs for s in d.sentences)
    preps = [prepare_cnndm(d, vocab, max_doc_sents=m, max_sent_len=8)
             for d, m in zip(docs, sizes)]
    if long_budget is None:  # the longest document fills the budget to its last slot
        long_budget = sum(len(u) for u in preps[0].units)
    cfg = config_from_dict(dict(MODEL, etc_layers=layers, long_budget=long_budget,
                                summary_budget=24, global_cap=global_cap,
                                local_radius=radius))
    plans = [[unit_step(0), unit_step(5), unit_step(2)], [unit_step(3), unit_step(1)],
             [unit_step(2)]]
    batch = [ex for prep, plan in zip(preps, plans) for ex in examples_from_plan(prep, plan)]
    # interleaved, so pairs that share a key are not neighbours
    return cfg, vocab, batch[::2] + batch[1::2]


def tables(layers=2):
    cfg = config_from_dict(dict(MODEL, task="rotowire", etc_layers=layers, max_sent_len=12,
                                max_plan_len=8, long_budget=240, summary_budget=60,
                                global_cap=64, local_radius=4, max_units=62))
    small = table3_game()
    small["id"] = "table3-one-player"
    small["players"] = small["players"][:1]
    games = [parse_game(table3_game()), parse_game(small)]
    vocab = Vocab.from_corpus(rotowire_corpus_sentences(games, cfg.max_units))
    preps = [prepare_rotowire(g, vocab, max_units=cfg.max_units,
                              max_sent_len=cfg.max_sent_len) for g in games]
    batch = []
    for prep, picks in zip(preps, ([0, 5, 2, 1], [3, 0])):
        c = prep.candidates[prep.special_count:]
        plan = [c[picks[0]], BREAK_STEP] + [c[i] for i in picks[1:]] + [BREAK_STEP]
        batch += examples_from_plan(prep, plan)
    return cfg, vocab, batch[::2] + batch[1::2]


CASES = {
    "documents": lambda: documents(),
    "documents_one_layer": lambda: documents(1),
    "tables_with_breaks": lambda: tables(),
    "tables_one_layer": lambda: tables(1),
    # one layer, long budget to spare: every anchor lies in the fixed part
    "one_layer_anchors_fixed": lambda: documents(1, long_budget=64),
    # one layer, and the longest document's last anchor is per-prefix
    "one_layer_fills_budget": lambda: documents(1, radius=5, long_budget=None),
    "radius_0": lambda: documents(radius=0),
    "radius_covers_rows": lambda: documents(radius=200),
    "single_pair": lambda: (lambda cfg, vocab, batch: (cfg, vocab, batch[4:5]))(*documents()),
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_matches_one_pair_forwards(case):
    cfg, vocab, batch = CASES[case]()
    model = build_model(cfg, len(vocab))
    pairs = [(ex.doc, ex.prefix) for ex in batch]
    keys = keys_of(cfg, vocab, batch)
    if case != "single_pair":
        assert len({id(doc) for doc, _ in pairs}) > 1
        assert 1 < len(set(keys)) < len(keys)  # some pairs share a fixed part
        sizes = {assemble_for(cfg, vocab, *p).global_kind.size for p in pairs}
        assert len(sizes) > 1  # and the pairs differ in global count
    asms = [assemble_for(cfg, vocab, doc, prefix) for doc, prefix in pairs]
    n_fixed = [int(np.searchsorted(a.position, 1 + cfg.long_budget - cfg.local_radius))
               for a in asms]
    if case == "one_layer_anchors_fixed":
        assert all(a.candidate_anchor[-1] < n for a, n in zip(asms, n_fixed))
    if case == "one_layer_fills_budget":
        assert any(a.candidate_anchor[-1] >= n for a, n in zip(asms, n_fixed))
        assert any(a.candidate_anchor[-1] < n for a, n in zip(asms, n_fixed))
    if case == "radius_covers_rows":
        assert max(a.long_ids.size for a in asms) <= cfg.local_radius
        assert not any(n_fixed)

    want = [model.logits([asm]).data for asm in asms]
    half = (len(pairs) + 1) // 2
    cache: dict = {}
    got = {
        "shared keys only": pair_rows(score_pairs(model, cfg, vocab, pairs)),
        # every key gets a fixed part; the second call reuses the first's
        "cached": [row for part in (pairs[:half], pairs[half:]) if part
                   for row in pair_rows(score_pairs(model, cfg, vocab, part, cache))],
    }
    for how, rows in got.items():
        assert len(rows) == len(pairs)
        for i, (row, w) in enumerate(zip(rows, want)):
            assert np.array_equal(row, w), (how, i)
    for w, asm in zip(want, asms):
        ref = model.score_candidates(reference_etc_encode(model, [asm])).data
        np.testing.assert_allclose(w, ref, rtol=0, atol=TOL)

    loss, grads = gradients(model, lambda: batch_mean_loss(model, cfg, vocab, batch))
    ref_loss, ref_grads = gradients(model,
                                    lambda: reference_mean_loss(model, cfg, vocab, batch))
    assert loss == pytest.approx(ref_loss, rel=0, abs=TOL)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=TOL,
                                   err_msg=name)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(StepwiseEtc, name)

    def counted(self, assemblies, *args):
        calls.append(len(assemblies))
        return original(self, assemblies, *args)

    monkeypatch.setattr(StepwiseEtc, name, counted)
    return calls


@pytest.mark.parametrize("case", ["documents", "tables_with_breaks"])
def test_one_stream_call_per_scoring_call(monkeypatch, case):
    cfg, vocab, batch = CASES[case]()
    model = build_model(cfg, len(vocab))
    pairs = [(ex.doc, ex.prefix) for ex in batch]
    keys = keys_of(cfg, vocab, batch)
    encodes = count_calls(monkeypatch, "etc_encode")
    fixed = count_calls(monkeypatch, "fixed_parts")

    score_pairs(model, cfg, vocab, pairs)
    # every pair in one stream; the shared keys' fixed parts in one more call
    assert encodes == [len(pairs)]
    assert fixed == [len({k for k in keys if keys.count(k) > 1})]

    encodes.clear()
    fixed.clear()
    cache: dict = {}
    for start in range(0, len(pairs), 3):
        score_pairs(model, cfg, vocab, pairs[start:start + 3], cache)
    chunks = -(-len(pairs) // 3)
    assert encodes == [len(pairs[s:s + 3]) for s in range(0, len(pairs), 3)]
    # at most one fixed-part call per scoring call, each key once; an empty
    # prefix's key only through a longer prefix, since no two pairs of one
    # call share it
    prefixed = {k for (_, prefix), k in zip(pairs, keys) if prefix}
    assert len(fixed) <= chunks and sum(fixed) == len(prefixed)

    # a training step is one stream forward and one backward sweep
    encodes.clear()
    with Tape() as tape:
        backward(tape, batch_mean_loss(model, cfg, vocab, batch))
    assert encodes == [len(batch)]


def _op_kind(node) -> str:
    return node.backward.__qualname__.split(".")[0]


def test_desk_training_step_records_no_head_split(monkeypatch):
    """A global-local layer reads each head in place: one desk-preset `etc`
    step's tape holds no `transpose` node and one `reshape`, the scorer's.
    Each residual and its norm are one node, and so is the batch loss."""
    cfg = config_from_dict(dict(encoder="etc"))
    docs, _ = make_overfit_corpus(n_docs=2, n_sents=7, n_gold=2, sent_len=5, seed=3)
    vocab = Vocab.from_corpus(s for d in docs for s in d.sentences)
    batch = []
    for d, plan in zip(docs, ([3, 0, 5], [1, 2, 4])):
        prep = trim_for_flat_budget(prepare_cnndm(d, vocab, max_doc_sents=cfg.max_doc_sents,
                                                  max_sent_len=cfg.max_sent_len), cfg, vocab)
        batch += examples_from_plan(prep, [unit_step(u) for u in plan])
    assert len(batch) == cfg.batch_size
    model = build_model(cfg, len(vocab))
    layer_kinds = []
    glocal = attention.glocal_attention

    def recorded(*args, **kwargs):
        tape = active_tape()
        start = len(tape.nodes)
        out = glocal(*args, **kwargs)
        layer_kinds.extend(_op_kind(n) for n in tape.nodes[start:])
        return out

    monkeypatch.setattr(attention, "glocal_attention", recorded)
    with Tape() as tape:
        loss = batch_mean_loss(model, cfg, vocab, batch)
        kinds = [_op_kind(n) for n in tape.nodes]
        backward(tape, loss)
    # layer 0 in its fixed-part call and its per-prefix call, then the last
    # layer at the anchors
    assert sorted(set(layer_kinds)) == ["global_attention", "linear", "long_attention"]
    assert layer_kinds.count("long_attention") == 3
    assert "transpose" not in kinds and kinds.count("reshape") == 1
    # the fixed-part call also projects layer 1's keys and values of its
    # rows (2 linear); the per-prefix call gathers the rows whose layer-0
    # keys and values it projects, and stitches the carried and the fresh
    # keys and values of layers 0 and 1 (5 concat_rows)
    assert (kinds.count("linear"), kinds.count("concat_rows")) == (30, 8)
    # two norms per layer call, each with its residual; one loss node
    assert kinds.count("layer_norm") == 8
    assert not {"add", "narrow", "scale"} & set(kinds)
    assert kinds.count("cross_entropy") == 1 and kinds[-1] == "cross_entropy"
    assert len(kinds) == 62
