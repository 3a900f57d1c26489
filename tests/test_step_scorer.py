"""ModelStepScorer: batched and memoized scoring against one-prefix forwards."""

import numpy as np
import pytest
from hibert_reference import reference_logits

from stepsum.acceptance import table3_game
from stepsum.config import config_from_dict
from stepsum.data import Vocab, prepare_cnndm, prepare_rotowire, rotowire_corpus_sentences
from stepsum.decoding import (
    DecodeConstraints,
    beam_decode,
    greedy_decode_with_repeat_exceptions,
)
from stepsum.etc_encoder import StepwiseEtc
from stepsum.hibert import StepwiseHibert
from stepsum.models import (
    ModelStepScorer,
    assemble_for,
    build_model,
    log_softmax,
    trim_for_flat_budget,
)
from stepsum.plan import BREAK_STEP
from stepsum.rotowire import parse_game
from stepsum.synthetic import make_overfit_corpus


def doc_setup(encoder):
    cfg = config_from_dict(dict(
        encoder=encoder, dim=16, ffn_dim=32, sent_layers=1, doc_layers=1,
        etc_layers=1, max_sent_len=8, max_doc_sents=16, long_budget=64,
        summary_budget=32, global_cap=16, local_radius=3, seed=3))
    docs, _ = make_overfit_corpus(n_docs=3, n_sents=7, n_gold=2, sent_len=5, seed=3)
    vocab = Vocab.from_corpus(s for d in docs for s in d.sentences)
    preps = []
    for d in docs:
        prep = prepare_cnndm(d, vocab, max_doc_sents=cfg.max_doc_sents,
                             max_sent_len=cfg.max_sent_len)
        preps.append(trim_for_flat_budget(prep, cfg, vocab) if encoder == "etc" else prep)
    return cfg, vocab, build_model(cfg, len(vocab)), preps


def table_setup():
    cfg = config_from_dict(dict(
        task="rotowire", encoder="hibert", dim=16, ffn_dim=32, sent_layers=1,
        doc_layers=1, max_sent_len=12, max_doc_sents=64, max_plan_len=8,
        max_units=62, seed=5))
    game = parse_game(table3_game())
    vocab = Vocab.from_corpus(rotowire_corpus_sentences([game], cfg.max_units))
    prep = prepare_rotowire(game, vocab, max_units=cfg.max_units,
                            max_sent_len=cfg.max_sent_len)
    return cfg, vocab, build_model(cfg, len(vocab)), prep


def one_prefix_logits(cfg, vocab, model, prep, prefix):
    if isinstance(model, StepwiseHibert):
        return reference_logits(model, prep.units, prefix, prep.special_count,
                                prep.break_slot)
    return model.logits([assemble_for(cfg, vocab, prep, prefix)])


def assert_rows_exact(cfg, vocab, model, prep, prefixes):
    scorer = ModelStepScorer(model, cfg, vocab, prep)
    rows = scorer.step_log_probs_batch(prefixes)
    assert len(rows) == len(prefixes)
    for prefix, row in zip(prefixes, rows):
        want = log_softmax(one_prefix_logits(cfg, vocab, model, prep, prefix).data)
        assert np.array_equal(row, want), prefix
        assert np.array_equal(scorer.step_log_probs(prefix), want), prefix


@pytest.mark.parametrize("encoder", ["hibert", "etc"])
def test_batched_rows_equal_one_prefix_forwards(encoder):
    cfg, vocab, model, preps = doc_setup(encoder)
    prep = preps[0]
    u = prep.candidates[prep.special_count:]
    # mixed lengths and repeated prefixes in one call
    prefixes = [(u[0],), (), (u[1],), (u[0], u[2]), (u[2],), (u[0],),
                (u[2], u[0]), (), (u[1], u[0], u[2])]
    assert_rows_exact(cfg, vocab, model, prep, prefixes)


def test_batched_rows_equal_one_prefix_forwards_table_mode():
    cfg, vocab, model, prep = table_setup()
    c = prep.candidates
    r = prep.special_count
    prefixes = [(c[r], BREAK_STEP), (BREAK_STEP,), (c[r + 1], BREAK_STEP),
                (c[r],), (c[r], BREAK_STEP), (BREAK_STEP, c[r + 2]),
                (c[r], BREAK_STEP, c[r + 3], BREAK_STEP)]
    assert_rows_exact(cfg, vocab, model, prep, prefixes)


def count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def etc_table_setup():
    """An untrained table model whose greedy decodes run all 20 steps, no break."""
    cfg = config_from_dict(dict(
        task="rotowire", encoder="etc", dim=16, ffn_dim=32, max_sent_len=12,
        max_plan_len=24, long_budget=240, summary_budget=240, global_cap=64,
        local_radius=4, max_units=62, max_steps=20, seed=5))
    small = table3_game()
    small["id"] = "table3-one-player"
    small["players"] = small["players"][:1]
    games = [parse_game(table3_game()), parse_game(small)]
    vocab = Vocab.from_corpus(rotowire_corpus_sentences(games, cfg.max_units))
    preps = [trim_for_flat_budget(prepare_rotowire(g, vocab, max_units=cfg.max_units,
                                                   max_sent_len=cfg.max_sent_len), cfg, vocab)
             for g in games]
    return cfg, vocab, build_model(cfg, len(vocab)), preps


@pytest.mark.parametrize("encoder", ["hibert", "etc"])
def test_decode_forward_counts(monkeypatch, encoder):
    cfg, vocab, model, preps = doc_setup(encoder)
    forward = {"hibert": (StepwiseHibert, "encode_document_stepwise"),
               "etc": (StepwiseEtc, "etc_encode")}[encoder]
    forwards = count_calls(monkeypatch, *forward)
    asked = count_calls(monkeypatch, ModelStepScorer, "step_log_probs_batch")
    fixed = count_calls(monkeypatch, StepwiseEtc, "fixed_parts")
    for prep in preps:
        forwards.clear()
        asked.clear()
        fixed.clear()
        scorer = ModelStepScorer(model, cfg, vocab, prep)
        beam_decode(scorer, 3, 4, DecodeConstraints())
        distinct = {prefix for (prefixes,) in asked for prefix in prefixes}
        # every live prefix of a depth shares one forward
        assert len(forwards) <= 4 < len(distinct)
        if encoder == "hibert":
            continue
        # each forward encodes that depth's new prefixes as one stream
        assert sum(len(assemblies) for assemblies, *_ in forwards) == len(distinct)
        # layer 0's fixed rows: once per distinct (document, global kinds) key
        # of a non-empty prefix, at most one stream call per later forward;
        # the empty prefix, scored alone, computes its first layer whole
        keys = {assemble_for(cfg, vocab, prep, p).global_kind.tobytes() for p in distinct if p}
        assert sum(len(assemblies) for (assemblies,) in fixed) == len(keys) < len(distinct)
        assert len(fixed) < len(forwards)
        for prefix in distinct:
            fresh = ModelStepScorer(model, cfg, vocab, prep)
            assert np.array_equal(scorer.step_log_probs(prefix),
                                  fresh.step_log_probs(prefix)), prefix
    if encoder == "etc":
        cfg, vocab, model, preps = etc_table_setup()
        for prep in preps:
            fixed.clear()
            steps = greedy_decode_with_repeat_exceptions(
                ModelStepScorer(model, cfg, vocab, prep), cfg.max_steps)
            assert len(steps) == 20 and BREAK_STEP not in steps
            # every prefix with its one plan global; none for the empty prefix
            assert [len(assemblies) for (assemblies,) in fixed] == [1]
