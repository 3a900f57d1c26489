"""Last encoder layers that compute only the rows their reader uses, against
the all-row stacks they replaced.

The flat stack's last layer queries from the candidate anchors alone and
skips the global stream; hibert's last sentence layer computes token 0
alone. Logits and every parameter gradient must match the references
(``etc_reference``, ``hibert_reference``) at 1e-12, and the score counts
must name what the short layers evaluate.
"""

from collections import Counter

import numpy as np
import pytest
from conftest import pair_rows
from etc_reference import reference_etc_encode
from hibert_reference import reference_encode_sentences

from stepsum.acceptance import table3_game
from stepsum.attention import (
    AttentionConfig,
    Segments,
    band_pattern,
    banded_pair_count,
    etc_global_local_attention,
    glocal_attention,
    init_glocal_layer,
    post_norm_block,
    score_counter,
)
from stepsum import autodiff
from stepsum.autodiff import Tape, Tensor, add, backward, cross_entropy, mul, sum_all, take
from stepsum.config import config_from_dict
from stepsum.data import (
    Vocab,
    examples_from_plan,
    prepare_cnndm,
    prepare_rotowire,
    rotowire_corpus_sentences,
)
from stepsum.etc_encoder import StepwiseEtc, assemble_input, rows_near
from stepsum.hibert import SentenceBatch, StepwiseHibert
from stepsum.models import batch_mean_loss, build_model, score_pairs, trim_for_flat_budget
from stepsum.plan import BREAK_STEP, unit_step
from stepsum.rotowire import parse_game
from stepsum.synthetic import make_overfit_corpus

TOL = 1e-12


def gradients(params, loss_fn):
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
        backward(tape, loss)
    return loss.item(), {name: p.grad.copy() for name, p in params.items()
                         if p.grad is not None}


def assert_same(got, want):
    (loss, grads), (ref_loss, ref_grads) = got, want
    assert loss == pytest.approx(ref_loss, rel=0, abs=TOL)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=TOL,
                                   err_msg=name)


# -- etc: one layer at some rows against the full layer -------------------------

LAYER_CASES = {
    # positions, radius, query rows, (long rows, globals) per example (None: one)
    "first_and_last_row": (np.arange(12), 2, [0, 5, 11], None),
    # one gap narrower than the radius (3 -> 5), one wider (7 -> 20)
    "compacted_gaps": (np.array([0, 1, 2, 3, 5, 6, 7, 20, 21, 22]), 3, [2, 4, 7, 9], None),
    # two examples of one stream, 3 positions apart; queries in both
    "two_segments": (np.r_[0:4, 7:13], 2, [0, 3, 4, 9], ([4, 6], [1, 2])),
    # two runs of consecutive query rows, each longer than the window
    "runs": (np.arange(40), 2, list(range(0, 10)) + list(range(20, 35)), None),
    # scattered query rows, more than one block of the band ops holds
    "scattered_blocks": (np.arange(1300), 2, list(range(0, 1300, 2)), None),
    "radius_0": (np.arange(6), 0, [0, 2, 5], None),
    "radius_covers_rows": (np.arange(5), 7, [0, 1, 4], None),
    "single_query": (np.arange(7), 2, [3], None),
}


@pytest.mark.parametrize("name", sorted(LAYER_CASES))
def test_layer_at_rows_matches_full_layer(name):
    positions, radius, rows, split = LAYER_CASES[name]
    rng = np.random.default_rng(5)
    n, dim = positions.size, 8
    long_sizes, glob_sizes = split or ([n], [3])
    n_glob = sum(glob_sizes)
    segments = Segments.of(long_sizes, glob_sizes)
    cfg = AttentionConfig(num_heads=2, model_dim=dim, local_radius=radius,
                          relpos_vocab_size=12, max_distance=4)
    layer = init_glocal_layer(rng, cfg, 16, 0.3)
    long = Tensor(rng.normal(size=(n, dim)), requires_grad=True)
    glob = Tensor(rng.normal(size=(n_glob, dim)), requires_grad=True)
    sid = np.concatenate([np.minimum(np.arange(m) // 3, g - 1)
                          for m, g in zip(long_sizes, glob_sizes)])
    probe = Tensor(rng.normal(size=(len(rows), dim)))
    glob_probe = Tensor(rng.normal(size=(n_glob, dim)))
    full = band_pattern(positions, radius)
    params = {"long": long, "glob": glob, "relpos": layer.attn.relpos,
              "wq": layer.attn.wq, "wo": layer.attn.wo, "ffn": layer.ffn.w1,
              "ln": layer.ln_ffn.gain}

    def loss(pattern, update_global):
        out, glob_out = etc_global_local_attention(long, glob, sid, layer, cfg,
                                                   pattern=pattern,
                                                   update_global=update_global,
                                                   segments=segments)
        if pattern.rows is None:
            out = take(out, np.asarray(rows))
        total = sum_all(mul(out, probe))
        if not update_global:
            assert glob_out is None
            return total
        return add(total, sum_all(mul(glob_out, glob_probe)))

    # which rows query and whether the global stream is updated are apart:
    # the anchor-row last layer has neither, etc's split first layer both
    for update_global in (False, True):
        assert_same(gradients(params, lambda: loss(full.at(rows), update_global)),
                    gradients(params, lambda: loss(full, update_global)))


def test_band_at_rejects_unordered_rows():
    full = band_pattern(np.arange(5), 1)
    with pytest.raises(ValueError):
        full.at([3, 1])
    with pytest.raises(ValueError):
        full.at([1, 2]).at([0])


# -- whole models against the all-row stacks ---------------------------------------


def doc_setup(encoder, layers):
    cfg = config_from_dict(dict(encoder=encoder, dim=16, ffn_dim=32, etc_layers=layers,
                                sent_layers=layers, doc_layers=1, max_sent_len=8,
                                long_budget=48, summary_budget=24, global_cap=32,
                                local_radius=3, seed=3))
    docs, _ = make_overfit_corpus(n_docs=2, n_sents=6, n_gold=2, sent_len=5, seed=3)
    vocab = Vocab.from_corpus(s for d in docs for s in d.sentences)
    preps = [prepare_cnndm(d, vocab, max_doc_sents=m, max_sent_len=cfg.max_sent_len)
             for d, m in zip(docs, (6, 4))]
    plans = [[unit_step(0), unit_step(5), unit_step(2)], [unit_step(3)]]
    batch = [ex for prep, plan in zip(preps, plans) for ex in examples_from_plan(prep, plan)]
    return cfg, vocab, build_model(cfg, len(vocab)), batch


def table_setup(encoder, layers):
    cfg = config_from_dict(dict(task="rotowire", encoder=encoder, dim=16, ffn_dim=32,
                                etc_layers=layers, sent_layers=layers, doc_layers=1,
                                max_sent_len=12, max_doc_sents=64, max_plan_len=8,
                                long_budget=240, summary_budget=60, global_cap=32,
                                local_radius=4, max_units=62, seed=5))
    game = parse_game(table3_game())
    vocab = Vocab.from_corpus(rotowire_corpus_sentences([game], cfg.max_units))
    prep = trim_for_flat_budget(prepare_rotowire(game, vocab, max_units=cfg.max_units,
                                                 max_sent_len=cfg.max_sent_len), cfg, vocab)
    c = prep.candidates[prep.special_count:]
    batch = examples_from_plan(prep, [c[0], BREAK_STEP, c[5], c[2], BREAK_STEP])
    return cfg, vocab, build_model(cfg, len(vocab)), batch


REFERENCES = {"etc": (StepwiseEtc, "etc_encode", reference_etc_encode),
              "hibert": (StepwiseHibert, "encode_sentences", reference_encode_sentences)}


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("setup", [doc_setup, table_setup], ids=["document", "table"])
@pytest.mark.parametrize("encoder", sorted(REFERENCES))
def test_score_pairs_match_full_last_layer(monkeypatch, encoder, setup, layers):
    cfg, vocab, model, batch = setup(encoder, layers)
    assert any(BREAK_STEP in ex.prefix for ex in batch) == (setup is table_setup)
    pairs = [(ex.doc, ex.prefix) for ex in batch]
    got = pair_rows(score_pairs(model, cfg, vocab, pairs))
    got_grads = gradients(model.named_parameters(),
                          lambda: batch_mean_loss(model, cfg, vocab, batch))
    monkeypatch.setattr(*REFERENCES[encoder])
    want = pair_rows(score_pairs(model, cfg, vocab, pairs))
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=TOL)
    assert_same(got_grads, gradients(model.named_parameters(),
                                     lambda: batch_mean_loss(model, cfg, vocab, batch)))


IDS = dict(cls_id=5, sep_id=6, beg_id=4, eos_id=3)

ASSEMBLIES = {
    # 1 + 17 tokens leave 2 empty slots before [SEP], inside radius 3; the
    # plan segment's empty slots span more than the radius
    "narrow_and_wide_gaps": (
        [[10, 11, 12, 13, 14, 15], [16, 17, 18, 19, 20, 21], [22, 23, 24, 25, 26]],
        [[16, 17, 18, 19, 20, 21], [3]], 1, 3),
    "single_candidate": ([[10, 11, 12]], [], 0, 2),
    "radius_0": ([[10, 11], [12, 13, 14]], [[12, 13, 14]], 1, 0),
    "radius_covers_rows": ([[10, 11], [12, 13, 14]], [[10, 11]], 1, 40),
}


def layout_model(layers, radius):
    """A small flat model over the layouts above: 20 + 10 budgets, 30 tokens."""
    cfg = config_from_dict(dict(encoder="etc", dim=8, num_heads=2, ffn_dim=16,
                                etc_layers=layers, long_budget=20, summary_budget=10,
                                global_cap=8, local_radius=radius, relpos_vocab_size=12,
                                relpos_max_distance=4))
    return StepwiseEtc(cfg, 30, np.random.default_rng(8))


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ASSEMBLIES))
def test_etc_logits_match_full_last_layer_on_layouts(name, layers):
    doc_units, plan_units, cand_specials, radius = ASSEMBLIES[name]
    model = layout_model(layers, radius)
    asm = assemble_input(doc_units, plan_units, [[2]], cand_specials, long_budget=20,
                         summary_budget=10, global_cap=8, **IDS)
    if name == "single_candidate":
        assert asm.candidate_anchor.size == 1
    target = asm.candidate_anchor.size - 1
    params = model.named_parameters()
    assert_same(
        gradients(params, lambda: cross_entropy(model.logits([asm]), [target])),
        gradients(params, lambda: cross_entropy(
            model.score_candidates(reference_etc_encode(model, [asm])), [target])))


def test_etc_counts_name_the_anchor_layer():
    model = layout_model(2, 3)
    doc_units, plan_units, cand_specials, _ = ASSEMBLIES["narrow_and_wide_gaps"]
    asm = assemble_input(doc_units, plan_units, [[2]], cand_specials, long_budget=20,
                         summary_budget=10, global_cap=8, **IDS)
    anchors = asm.candidate_anchor
    n, g, r = asm.long_ids.size, asm.global_kind.size, model.cfg.local_radius
    # the rows the last layer reads: within r of an anchor in position
    read = np.flatnonzero(
        (np.abs(asm.position[:, None] - asm.position[anchors]) <= r).any(axis=1))
    assert np.array_equal(rows_near(asm.position, anchors, r), read)
    assert read.size < n
    score_counter.reset()
    model.etc_encode([asm])
    # the first layer queries from the rows the last one reads and updates
    # the global stream from every row; the last one holds the read rows
    # alone, queries from the anchors among them, each anchor's slots whose
    # neighbour row exists there, and has no global stream
    last = banded_pair_count(read.size, r, np.searchsorted(read, anchors))
    assert score_counter.get("long_to_long") == banded_pair_count(n, r, read) + last
    assert score_counter.get("long_to_global") == read.size * g + anchors.size * g
    assert score_counter.get("global") == g * g + g * n
    assert banded_pair_count(n, r, anchors) < anchors.size * (2 * r + 1)


def test_layer_gathers_its_query_rows_once(monkeypatch):
    model = layout_model(2, 3)
    doc_units, plan_units, cand_specials, _ = ASSEMBLIES["narrow_and_wide_gaps"]
    asm = assemble_input(doc_units, plan_units, [[2]], cand_specials, long_budget=20,
                         summary_budget=10, global_cap=8, **IDS)
    fixed = model.fixed_parts([asm])
    ops = Counter()
    apply_op = autodiff.apply_op

    def counting(out, inputs, back, *, what):
        ops[what] += 1
        return apply_op(out, inputs, back, what=what)

    monkeypatch.setattr(autodiff, "apply_op", counting)
    model.etc_encode([asm], fixed)
    # every row the last layer reads is fixed, so layer 0 gathers and
    # computes no long row, and its output and layer 1's keys and values
    # are the fixed part's rows as they are; the token and global-kind
    # lookups, then the last layer's gather of its anchors (a take); one
    # gather of the rows whose layer-0 keys and values are projected, and
    # the carried keys and values stitched to them; no layer narrows its
    # softmax apart, since each query stream's attention is one op
    assert fixed[0].out[2] == rows_near(asm.position, asm.candidate_anchor, 3).size
    assert (ops["take"], ops["concat_rows"], ops["narrow"]) == (2 + 1, 1 + 2, 0)
    monkeypatch.undo()

    # the layer's rows are those of attention plus a residual gathered apart
    layer, cfg = model.params.layers[0], model.attention
    long = Tensor(np.random.default_rng(3).normal(size=(asm.long_ids.size, cfg.model_dim)))
    glob = Tensor(np.random.default_rng(4).normal(size=(asm.global_kind.size,
                                                        cfg.model_dim)))
    pattern = band_pattern(asm.position, cfg.local_radius).at(asm.candidate_anchor)
    out, _ = etc_global_local_attention(long, glob, asm.sentence_id, layer, cfg,
                                        pattern=pattern, update_global=False)
    attended, _ = glocal_attention(long, glob, asm.sentence_id, layer.attn, cfg,
                                   pattern=pattern, update_global=False)
    want = post_norm_block(take(long, asm.candidate_anchor), attended, layer.ln_attn,
                           layer.ffn, layer.ln_ffn)
    assert np.array_equal(out.data, want.data)


# -- hibert: the token-0 last sentence layer --------------------------------------


@pytest.mark.parametrize("sent_layers", [1, 2])
@pytest.mark.parametrize("widths", [[1, 1, 1], [1, 4, 2, 6]], ids=["width_1", "mixed"])
def test_sentence_stack_matches_all_token_reference(sent_layers, widths):
    cfg = config_from_dict(dict(encoder="hibert", dim=16, num_heads=2, ffn_dim=32,
                                sent_layers=sent_layers, doc_layers=1, max_sent_len=8,
                                max_doc_sents=32, max_plan_len=8))
    model = StepwiseHibert(cfg, 20, np.random.default_rng(4))
    rng = np.random.default_rng(9)
    batch = SentenceBatch.from_units([[int(t) for t in rng.integers(2, 20, size=w)]
                                      for w in widths])
    probe = Tensor(rng.normal(size=(len(widths), cfg.dim)))
    params = model.named_parameters()
    assert_same(
        gradients(params, lambda: sum_all(mul(model.encode_sentences(batch), probe))),
        gradients(params, lambda: sum_all(mul(reference_encode_sentences(model, batch),
                                              probe))))
