"""The benchmark's outside-in hooks still attach to the package, and detach.

``perfbench/tracer.py`` and ``perfbench/pipeline.py`` wrap stepsum's public
functions and methods by name. A rename in the package should fail here,
not in a benchmark run.
"""

import pathlib
import sys

import pytest

from stepsum import cli, models
from stepsum.config import RunConfig, config_from_dict
from stepsum.data import Vocab, prepare_cnndm
from stepsum.decoding import DecodeConstraints
from stepsum.synthetic import make_overfit_corpus

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipeline
    import tracer

    return tracer, pipeline


def snapshot():
    """Every attribute of every stepsum module and class, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "stepsum" or name.startswith("stepsum.")):
            continue
        for key, value in list(vars(mod).items()):
            seen[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in list(vars(value).items()):
                    seen[(name, key, attr)] = member
    return seen


def assert_restored(before):
    after = snapshot()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert not changed, f"not restored: {changed[:5]}"


def decode_setup(encoder="hibert"):
    # the flat layout's long budget holds the stop unit and 2 of the 5 units
    cfg = config_from_dict(dict(encoder=encoder, dim=16, ffn_dim=32, sent_layers=1,
                                doc_layers=1, etc_layers=1, max_sent_len=8,
                                max_doc_sents=16, long_budget=12, summary_budget=16,
                                global_cap=16, local_radius=2, seed=3))
    docs, _ = make_overfit_corpus(n_docs=1, n_sents=5, n_gold=2, sent_len=4, seed=3)
    vocab = Vocab.from_corpus(docs[0].sentences)
    prep = prepare_cnndm(docs[0], vocab, max_doc_sents=cfg.max_doc_sents,
                         max_sent_len=cfg.max_sent_len)
    return models.build_model(cfg, len(vocab)), cfg, vocab, prep


def test_tracer_attaches_and_restores_every_original(perfbench):
    tracer_mod, _ = perfbench
    model, cfg, vocab, prep = decode_setup()
    before = snapshot()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert models.ModelStepScorer.__dict__["__init__"] is not before[
            ("stepsum.models", "ModelStepScorer", "__init__")]
        # positional, as the tracer's hook reads the document from args[4]
        scorer = cli.ModelStepScorer(model, cfg, vocab, prep)
        scorer.step_log_probs(())
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"models.scorer_init", "models.step_log_probs", "hibert.encode_sentences",
            "hibert.encode_document", "attention.dense"} <= names
    assert all(span[4] == prep.doc_id for span in tracer.spans)
    assert_restored(before)


def test_tracer_counts_etc_rows_and_restores_every_original(perfbench):
    tracer_mod, _ = perfbench
    model, cfg, vocab, prep = decode_setup("etc")
    before = snapshot()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        trimmed = models.trim_for_flat_budget(prep, cfg, vocab)
        cli.ModelStepScorer(model, cfg, vocab, trimmed).step_log_probs(())
    finally:
        tracer.uninstall()
    assert_restored(before)
    names = {span[0] for span in tracer.spans}
    assert {"models.trim_for_flat_budget", "etc_encoder.assemble_input",
            "etc_encoder.etc_encode", "attention.etc_layer"} <= names
    rows = models.assemble_for(cfg, vocab, trimmed, ()).long_ids.size
    assert tracer.counts["etc_encoder.long_tokens"] == rows
    assert tracer.counts["etc_encoder.assembly_warnings"] == 0
    assert tracer.counts["models.units_trimmed"] == 3


def test_doc_clock_times_each_decode_and_restores_cli(perfbench):
    _, pipeline = perfbench
    model, cfg, vocab, prep = decode_setup()
    before = snapshot()
    with pipeline.DocClock().installed() as clock:
        scorer = cli.ModelStepScorer(model, cfg, vocab, prep)
        cli.beam_decode(scorer, 2, 3, DecodeConstraints())
    assert len(clock.spans) == 1 and clock.spans[0][0] <= clock.spans[0][1]
    assert_restored(before)


def test_attention_sweep_counts_the_clipped_band(perfbench):
    """The sweep builds a desk-shaped global-local layer and calls it positionally."""
    tracer_mod, _ = perfbench
    out = tracer_mod.attention_sweep(101)
    radius = RunConfig().local_radius
    for length in tracer_mod.SWEEP_LENGTHS:
        # every row's window of 2r+1 slots, less the r(r+1) slots clipped at the ends
        assert out[f"attention.sweep.L{length}_long_to_long"] == (
            length * (2 * radius + 1) - radius * (radius + 1))
        assert out[f"attention.sweep.L{length}_ms"] > 0
    assert out["attention.glocal_ns_per_entry"] > 0
