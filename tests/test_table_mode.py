"""Table-mode behavior across both encoders, plus the table CLI round."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from conftest import cli_env, pair_rows

from stepsum.acceptance import table3_game
from stepsum.config import config_from_dict
from stepsum.data import (
    Document,
    Vocab,
    align_plan_to_units,
    examples_from_plan,
    prepare_cnndm,
    prepare_rotowire,
    rotowire_corpus_sentences,
)
from stepsum.models import ModelStepScorer, build_model, score_pairs, trim_for_flat_budget
from stepsum.plan import BREAK_STEP, END_STEP, RecordRef, unit_step
from stepsum.rotowire import parse_game, plan_from_json


def table_cfg(encoder="hibert", **overrides):
    base = dict(task="rotowire", encoder=encoder, dim=16, ffn_dim=32,
                sent_layers=1, doc_layers=1, etc_layers=1, max_sent_len=12,
                max_doc_sents=64, max_plan_len=8, long_budget=240,
                summary_budget=60, global_cap=32, local_radius=4,
                max_units=62, seed=5)
    base.update(overrides)
    return config_from_dict(base)


@pytest.fixture(scope="module")
def table_setup():
    game = parse_game(table3_game())
    cfg = table_cfg()
    vocab = Vocab.from_corpus(rotowire_corpus_sentences([game], cfg.max_units))
    prep = prepare_rotowire(game, vocab, max_units=cfg.max_units,
                            max_sent_len=cfg.max_sent_len)
    return game, cfg, vocab, prep


def test_no_document_positions_means_unit_order_irrelevant(table_setup):
    """Table entries are a set: permuting units permutes logits identically."""
    game, cfg, vocab, prep = table_setup
    assert not cfg.doc_positions_enabled()
    model = build_model(cfg, len(vocab))
    perm = np.random.default_rng(0).permutation(prep.n_real_units)
    permuted = replace(prep, units=prep.units[: prep.special_count] + [
        prep.units[prep.special_count + int(i)] for i in perm
    ])
    logits, logits_p = pair_rows(score_pairs(model, cfg, vocab, [(prep, ()), (permuted, ())]))
    real = logits[prep.special_count:]
    real_p = logits_p[prep.special_count:]
    np.testing.assert_allclose(real[perm], real_p, atol=1e-10)


def test_document_positions_break_permutation_symmetry(table_setup):
    """The same units as a cnndm document, where positions are on, are ordered."""
    game, table, vocab, table_prep = table_setup
    cfg = table_cfg(task="cnndm")
    assert cfg.doc_positions_enabled()
    doc = Document(game.game_id, table_prep.unit_tokens[table_prep.special_count:])
    prep = prepare_cnndm(doc, vocab, max_doc_sents=cfg.max_doc_sents,
                         max_sent_len=cfg.max_sent_len)
    model = build_model(cfg, len(vocab))
    reversed_doc = replace(prep, units=prep.units[: prep.special_count] + list(
        reversed(prep.units[prep.special_count:])))
    logits, logits_r = pair_rows(score_pairs(model, cfg, vocab,
                                             [(prep, ()), (reversed_doc, ())]))
    real = logits[prep.special_count:]
    real_r = logits_r[prep.special_count:]
    assert not np.allclose(real[::-1], real_r, atol=1e-10)


def test_plan_positions_still_order_the_prefix(table_setup):
    """Swapping two prefix elements changes the distribution (plan order kept)."""
    game, cfg, vocab, prep = table_setup
    model = build_model(cfg, len(vocab))
    a = prep.candidates[prep.special_count]
    b = prep.candidates[prep.special_count + 3]
    la, lb = pair_rows(score_pairs(model, cfg, vocab, [(prep, (a, b)), (prep, (b, a))]))
    assert not np.allclose(la, lb, atol=1e-10)


def test_align_plan_maps_records_and_reports_missing(table_setup):
    game, cfg, vocab, prep = table_setup
    plan = plan_from_json([
        {"entity": "Chicago_Bulls", "type": "TEAM-PTS"},
        "EOS",
        {"entity": "Ghost", "type": "TEAM-PTS"},
        {"entity": "Michael_Jordan", "type": "PLAYER-PTS"},
        "EOT",
    ])
    aligned = align_plan_to_units(plan, prep)
    kinds = [s.kind for s in aligned]
    assert kinds == ["unit", "break", "unit", "end"]  # ghost record dropped
    idx = aligned[0].unit
    assert prep.records[idx] == RecordRef("Chicago_Bulls", "TEAM-PTS", "100")


def test_examples_cover_breaks_and_stop(table_setup):
    game, cfg, vocab, prep = table_setup
    plan = [prep.candidates[prep.special_count], BREAK_STEP,
            prep.candidates[prep.special_count + 1]]
    examples = examples_from_plan(prep, plan)
    targets = [ex.target for ex in examples]
    assert targets[1] == prep.break_slot
    assert targets[-1] == prep.special_count - 1  # the stop slot
    assert len(examples) == 4


def test_etc_scorer_candidates_align_after_trim():
    cfg = table_cfg(encoder="etc")
    game = parse_game(table3_game())
    vocab = Vocab.from_corpus(rotowire_corpus_sentences([game], cfg.max_units))
    prep = prepare_rotowire(game, vocab, max_units=cfg.max_units,
                            max_sent_len=cfg.max_sent_len)
    prep = trim_for_flat_budget(prep, cfg, vocab)
    model = build_model(cfg, len(vocab))
    scorer = ModelStepScorer(model, cfg, vocab, prep)
    probs = np.exp(scorer.step_log_probs(()))
    assert probs.shape == (len(prep.candidates),)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    # a break step in the prefix round-trips through the plan segment
    probs2 = scorer.step_log_probs((prep.candidates[2], BREAK_STEP))
    assert np.isfinite(probs2).all()


def test_cli_rotowire_round(tmp_path):
    games_path = tmp_path / "games.jsonl"
    plans_path = tmp_path / "plans.jsonl"
    raw = table3_game()
    with open(games_path, "w") as fh:
        fh.write(json.dumps(raw) + "\n")
    with open(plans_path, "w") as fh:
        fh.write(json.dumps({"id": "table3", "plan": [
            {"entity": "Chicago_Bulls", "type": "TEAM-NAME"},
            {"entity": "Chicago_Bulls", "type": "TEAM-PTS"},
            "EOS",
            {"entity": "Michael_Jordan", "type": "PLAYER-PTS"},
            "EOT",
        ]}) + "\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "[run]\ntask = rotowire\nencoder = etc\nseed = 5\n"
        "[model]\ndim = 16\nffn_dim = 32\netc_layers = 1\nmax_sent_len = 12\n"
        "max_doc_sents = 64\nlong_budget = 240\nsummary_budget = 60\n"
        "global_cap = 32\nlocal_radius = 4\n"
        "[optimizer]\ntrain_steps = 10\ncheckpoint_every = 5\nbatch_size = 2\n"
        "learning_rate = 0.002\n"
        "[data]\nmax_units = 62\n"
    )

    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "stepsum.cli", *args],
                              capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        return proc

    ckpt = tmp_path / "ckpt"
    run("train", "--config", str(cfg_path), "--train", str(games_path),
        "--train-plans", str(plans_path), "--valid", str(games_path),
        "--valid-plans", str(plans_path), "--out", str(ckpt))
    plans_out = tmp_path / "decoded.jsonl"
    run("decode", "--config", str(cfg_path), "--ckpt", str(ckpt / "best"),
        "--in", str(games_path), "--out", str(plans_out), "--max-steps", "4")
    row = json.loads(open(plans_out).readline())
    assert row["id"] == "table3"
    assert row["plan"][-1] == "EOT" or len(row["plan"]) == 4
    report = tmp_path / "report.json"
    run("eval", "--task", "plan", "--gen", str(plans_out), "--ref",
        str(plans_path), "--out", str(report))
    blob = json.load(open(report))
    assert "cs_f1" in blob["corpus"] and "co" in blob["corpus"]


def _table_decode_without_checkpoint(tmp_path, flags, decode_rules=""):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[run]\ntask = rotowire\n[decode]\n" + decode_rules)
    games_path = tmp_path / "games.jsonl"
    games_path.write_text(json.dumps(table3_game()) + "\n")
    out = tmp_path / "decoded.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "stepsum.cli", "decode", "--config", str(cfg_path),
         "--ckpt", str(tmp_path / "none"), "--in", str(games_path), "--out", str(out),
         *flags],
        capture_output=True, text=True, env=cli_env())
    return proc, out


@pytest.mark.parametrize("flags,message", [
    (["--beam", "3"], "table-mode decode is greedy"),
    (["--triblk"], "table-mode decode is greedy"),
    # beam 1 is what table mode does: decode goes on as far as the checkpoint
    (["--beam", "1"], "is not a checkpoint directory"),
])
def test_cli_table_decode_rejects_flags_it_cannot_honour(tmp_path, flags, message):
    proc, out = _table_decode_without_checkpoint(tmp_path, flags)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("decode_rules,message", [
    ("trigram_blocking = true\n", "never blocks trigrams"),
    ("no_repeat = false\n", "always blocks repeated records"),
    # the rules table mode follows anyway: decode goes on as far as the checkpoint
    ("no_repeat = true\ntrigram_blocking = false\n", "is not a checkpoint directory"),
])
def test_cli_table_decode_rejects_config_rules_it_cannot_honour(tmp_path, decode_rules,
                                                                message):
    proc, out = _table_decode_without_checkpoint(tmp_path, [], decode_rules)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not out.exists()


def test_cli_rotowire_train_names_plan_file_lines(tmp_path):
    games_path = tmp_path / "games.jsonl"
    plans_path = tmp_path / "plans.jsonl"
    games_path.write_text(json.dumps(table3_game()) + "\n")
    plan = {"id": "table3", "plan": [
        {"entity": "Chicago_Bulls", "type": "TEAM-PTS"}, "EOT"]}
    plans_path.write_text("\n\nnot json\n" + json.dumps(plan) + "\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "[run]\ntask = rotowire\nencoder = hibert\nseed = 3\n"
        "[model]\ndim = 16\nffn_dim = 32\nsent_layers = 1\ndoc_layers = 1\n"
        "[optimizer]\ntrain_steps = 2\ncheckpoint_every = 1\nbatch_size = 2\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "stepsum.cli", "train", "--config", str(cfg_path),
         "--train", str(games_path), "--train-plans", str(plans_path),
         "--valid", str(games_path), "--valid-plans", str(plans_path),
         "--out", str(tmp_path / "ckpt")],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 1, proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert errors and all(ln.startswith(f"error: {plans_path}:3: ") for ln in errors), errors


def test_cli_etc_train_rejects_plan_over_summary_budget(tmp_path):
    """A prefix that does not fit the plan segment is an error, not a shorter input."""
    games_path = tmp_path / "games.jsonl"
    plans_path = tmp_path / "plans.jsonl"
    games_path.write_text(json.dumps(table3_game()) + "\n")
    plan = {"id": "table3", "plan": [
        {"entity": "Chicago_Bulls", "type": "TEAM-PTS"},
        {"entity": "LA_Lakers", "type": "TEAM-PTS"},
        "EOS",
        {"entity": "Michael_Jordan", "type": "PLAYER-PTS"},
        "EOT"]}
    plans_path.write_text(json.dumps(plan) + "\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "[run]\ntask = rotowire\nencoder = etc\nseed = 5\n"
        "[model]\ndim = 16\nffn_dim = 32\netc_layers = 1\nmax_sent_len = 12\n"
        "long_budget = 240\nsummary_budget = 12\nglobal_cap = 32\nlocal_radius = 4\n"
        "[optimizer]\ntrain_steps = 2\ncheckpoint_every = 1\nbatch_size = 8\n"
        "[data]\nmax_units = 62\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "stepsum.cli", "train", "--config", str(cfg_path),
         "--train", str(games_path), "--train-plans", str(plans_path),
         "--valid", str(games_path), "--valid-plans", str(plans_path),
         "--out", str(tmp_path / "ckpt")],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 2, proc.stderr
    # the begin marker and one 11-token team record fill the 12 slots; the second overflows
    assert ("error: document table3: plan element 1 (11 tokens) overflows summary_budget 12"
            in proc.stderr.splitlines())
    # refused before training starts, so no checkpoint was written
    assert not os.path.exists(tmp_path / "ckpt" / "last")
