"""Training behavior and the command-line surface (run as real subprocesses)."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from conftest import cli_env

from stepsum.config import config_from_dict
from stepsum.data import Vocab, examples_from_plan, prepare_cnndm
from stepsum.metrics import rouge_l, rouge_n
from stepsum.models import ModelStepScorer, batch_mean_loss, build_model
from stepsum.synthetic import gold_plan, make_overfit_corpus
from stepsum.training import TrainingDiverged, evaluate_loss, train


def tiny_cfg(**overrides):
    base = dict(dim=16, ffn_dim=32, sent_layers=1, doc_layers=1,
                max_sent_len=8, max_doc_sents=16, batch_size=4,
                train_steps=40, checkpoint_every=20, learning_rate=2e-3,
                seed=3)
    base.update(overrides)
    return config_from_dict(base)


def tiny_corpus(n_docs=6):
    docs, gold = make_overfit_corpus(n_docs=n_docs, n_sents=6, n_gold=2,
                                     sent_len=5, seed=3)
    vocab = Vocab.from_corpus(s for d in docs for s in d.sentences)
    cfg = tiny_cfg()
    examples = []
    for d in docs:
        prep = prepare_cnndm(d, vocab, max_doc_sents=cfg.max_doc_sents,
                             max_sent_len=cfg.max_sent_len)
        examples.extend(examples_from_plan(prep, gold_plan(gold[d.doc_id])))
    return cfg, vocab, examples


def test_single_step_reduces_example_loss():
    cfg = tiny_cfg(train_steps=1, checkpoint_every=1, batch_size=1,
                   learning_rate=1e-3)
    _, vocab, examples = tiny_corpus(2)
    model = build_model(cfg, len(vocab))
    one = [examples[0]]
    before = evaluate_loss(model, cfg, vocab, one)
    train(cfg, model, vocab, one, one)
    after = evaluate_loss(model, cfg, vocab, one)
    assert after < before


def test_last_train_loss_is_the_mean_since_the_last_check(monkeypatch):
    """Five steps with a check every three: the last logged train loss is
    the mean of steps 4 and 5."""
    from stepsum import training

    cfg, vocab, examples = tiny_corpus(2)
    cfg.train_steps, cfg.checkpoint_every = 5, 3
    losses = []

    def recorded(*args):
        loss = batch_mean_loss(*args)
        losses.append(loss.item())
        return loss

    monkeypatch.setattr(training, "batch_mean_loss", recorded)
    result = train(cfg, build_model(cfg, len(vocab)), vocab, examples, examples[:4])
    assert [(step, loss) for step, loss, _ in result.history] == [
        (3, (losses[0] + losses[1] + losses[2]) / 3), (5, (losses[3] + losses[4]) / 2)]


def test_empty_validation_set_rejected():
    cfg, vocab, examples = tiny_corpus(2)
    with pytest.raises(ValueError, match="no validation examples"):
        train(cfg, build_model(cfg, len(vocab)), vocab, examples, [])


def test_seed_repeat_identical_loss_curves():
    cfg, vocab, examples = tiny_corpus()

    def run():
        model = build_model(cfg, len(vocab))
        return train(cfg, model, vocab, examples, examples[:8]).history

    assert run() == run()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_last_checkpoint(tmp_path):
    cfg, vocab, examples = tiny_corpus(2)
    cfg.learning_rate = 1e155  # force a blow-up after the first checkpoint
    cfg.train_steps = 40
    cfg.checkpoint_every = 1
    model = build_model(cfg, len(vocab))
    out = str(tmp_path / "run")
    with pytest.raises(TrainingDiverged):
        train(cfg, model, vocab, examples, examples[:4], out)
    from stepsum.checkpoint import load_checkpoint

    manifest, arrays = load_checkpoint(os.path.join(out, "last"))
    assert manifest.vocab == vocab.id_to_token
    assert all(np.isfinite(a).all() for a in arrays.values())


def test_decode_after_restore_is_bitwise_identical(tmp_path):
    from stepsum.checkpoint import load_checkpoint, restore_params, save_checkpoint
    from stepsum.data import prepare_cnndm
    from stepsum.synthetic import make_overfit_corpus

    cfg, vocab, examples = tiny_corpus(2)
    model = build_model(cfg, len(vocab))
    train(cfg, model, vocab, examples, examples[:4])
    prep = examples[0].doc
    before = ModelStepScorer(model, cfg, vocab, prep).step_log_probs(())

    path = str(tmp_path / "ck")
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    _, arrays = load_checkpoint(path)
    fresh = build_model(cfg, len(vocab), seed=1234)
    restore_params(fresh.named_parameters(), arrays)
    after = ModelStepScorer(fresh, cfg, vocab, prep).step_log_probs(())
    assert np.array_equal(before, after)


# -- CLI ----------------------------------------------------------------------


def write_config(path, **overrides):
    lines = {
        "run": {"task": "cnndm", "encoder": "hibert", "seed": 3},
        "model": {"dim": 16, "ffn_dim": 32, "sent_layers": 1, "doc_layers": 1,
                  "max_sent_len": 8, "max_doc_sents": 16},
        "optimizer": {"train_steps": 30, "checkpoint_every": 15,
                      "batch_size": 4, "learning_rate": 0.002},
    }
    for key, value in overrides.items():
        section, name = key.split(".")
        lines.setdefault(section, {})[name] = value
    with open(path, "w") as fh:
        for section, kv in lines.items():
            fh.write(f"[{section}]\n")
            for k, v in kv.items():
                fh.write(f"{k} = {v}\n")


def write_docs(path, n_docs=6):
    docs, gold = make_overfit_corpus(n_docs=n_docs, n_sents=6, n_gold=2,
                                     sent_len=5, seed=3)
    with open(path, "w") as fh:
        for d in docs:
            fh.write(json.dumps({
                "id": d.doc_id,
                "sentences": d.sentences,
                "abstract": [d.sentences[i] for i in gold[d.doc_id]],
            }) + "\n")


def run_cli(*args, env_extra=None):
    # Run from tests/, not the repo root, so the CLI is checked outside it.
    return subprocess.run(
        [sys.executable, "-m", "stepsum.cli", *args],
        capture_output=True, text=True, env=cli_env(env_extra),
        cwd=os.path.dirname(__file__),
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = str(root / "run.cfg")
    docs_path = str(root / "docs.jsonl")
    write_config(cfg_path)
    write_docs(docs_path)
    return root, cfg_path, docs_path


@pytest.fixture(scope="module")
def trained_ckpt(workspace):
    """Run ``stepsum train`` once into the workspace; return its ``best/``."""
    root, cfg_path, docs_path = workspace
    ckpt = str(root / "ckpt")
    r = run_cli("train", "--config", cfg_path, "--train", docs_path,
                "--valid", docs_path, "--out", ckpt)
    assert r.returncode == 0, r.stderr
    return os.path.join(ckpt, "best")


def test_cli_oracle_and_repeatability(workspace):
    root, cfg_path, docs_path = workspace
    out1 = str(root / "o1.jsonl")
    out2 = str(root / "o2.jsonl")
    r1 = run_cli("oracle", "--config", cfg_path, "--in", docs_path, "--out", out1)
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli("oracle", "--config", cfg_path, "--in", docs_path, "--out", out2)
    assert r2.returncode == 0, r2.stderr
    assert open(out1, "rb").read() == open(out2, "rb").read()
    row = json.loads(open(out1).readline())
    assert set(row) == {"id", "selected", "score"}


def test_cli_import_leaves_release_suite_unloaded():
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, stepsum.cli; print('stepsum.acceptance' in sys.modules)"],
        capture_output=True, text=True, env=cli_env(), cwd=os.path.dirname(__file__))
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_cli_import_leaves_process_pool_unloaded():
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, stepsum.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env=cli_env(), cwd=os.path.dirname(__file__))
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_cli_malformed_line_reported_run_continues(workspace, tmp_path):
    root, cfg_path, docs_path = workspace
    bad = str(tmp_path / "bad.jsonl")
    lines = open(docs_path).readlines()
    with open(bad, "w") as fh:
        fh.write(lines[0])
        fh.write("this is not json\n")
        fh.writelines(lines[1:3])
    out = str(tmp_path / "oracles.jsonl")
    r = run_cli("oracle", "--config", cfg_path, "--in", bad, "--out", out)
    assert r.returncode == 1
    assert ":2:" in r.stderr
    assert len(open(out).readlines()) == 3  # the good lines still processed


# The abstract-less document sits on the first line or further in: either way
# only that line is reported and every other document still gets its oracle.
@pytest.mark.parametrize("bad_line", [1, 2])
def test_cli_oracle_skips_document_without_abstract(workspace, tmp_path, bad_line):
    root, cfg_path, docs_path = workspace
    rows = open(docs_path).readlines()[:4]
    no_abstract = json.loads(rows[bad_line - 1])
    del no_abstract["abstract"]
    good = rows[:bad_line - 1] + rows[bad_line:]
    rows[bad_line - 1] = json.dumps(no_abstract) + "\n"
    bad = str(tmp_path / "bad.jsonl")
    with open(bad, "w") as fh:
        fh.writelines(rows)
    out = str(tmp_path / "oracles.jsonl")
    r = run_cli("oracle", "--config", cfg_path, "--in", bad, "--out", out)
    assert r.returncode == 1, r.stderr
    assert f"error: {bad}:{bad_line}: document {no_abstract['id']}: " in r.stderr
    ids = [json.loads(line)["id"] for line in open(out)]
    assert ids == [json.loads(line)["id"] for line in good]


def test_cli_errors_name_file_lines_not_row_indices(workspace, tmp_path):
    root, cfg_path, docs_path = workspace
    lines = open(docs_path).readlines()
    empty_sentence = {"id": "hollow", "sentences": [["a"], []], "abstract": [["a"]]}
    bad = str(tmp_path / "bad.jsonl")
    with open(bad, "w") as fh:
        fh.write(lines[0])
        fh.write("not json\n")
        fh.write("\n")
        fh.write(json.dumps(empty_sentence) + "\n")
        fh.write(lines[1])
    out = str(tmp_path / "oracles.jsonl")
    r = run_cli("oracle", "--config", cfg_path, "--in", bad, "--out", out)
    assert r.returncode == 1
    errors = [ln for ln in r.stderr.splitlines() if ln.startswith("error:")]
    lines_named = [ln[len(f"error: {bad}:"):].split(":")[0] for ln in errors]
    assert lines_named == ["2", "4"], errors
    assert len(open(out).readlines()) == 2


@pytest.mark.parametrize("field, value", [
    ("sentences", ["the cat sat", "on the mat"]),  # sentences as strings
    ("abstract", ["the", "cat"]),                  # a flat token list
    ("abstract", "the cat"),
])
def test_cli_oracle_reports_sentences_that_are_not_lists(workspace, tmp_path, field, value):
    root, cfg_path, docs_path = workspace
    lines = open(docs_path).readlines()
    bad_doc = {"id": "strings", "sentences": [["the", "cat"]], "abstract": [["the"]]}
    bad_doc[field] = value
    bad = str(tmp_path / "bad.jsonl")
    with open(bad, "w") as fh:
        fh.write(lines[0])
        fh.write(json.dumps(bad_doc) + "\n")
    out = str(tmp_path / "oracles.jsonl")
    r = run_cli("oracle", "--config", cfg_path, "--in", bad, "--out", out)
    assert r.returncode == 1, r.stderr
    assert (f"error: {bad}:2: '{field}' must be a list of sentences, each a list of tokens"
            in r.stderr)
    assert [json.loads(line)["id"] for line in open(out)] == [json.loads(lines[0])["id"]]


def _eval_rows(tmp_path, task, gen_rows, ref_rows):
    gen, ref = str(tmp_path / "gen.jsonl"), str(tmp_path / "ref.jsonl")
    for path, rows in ((gen, gen_rows), (ref, ref_rows)):
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    report = str(tmp_path / "report.json")
    r = run_cli("eval", "--task", task, "--gen", gen, "--ref", ref, "--out", report)
    return r, gen, ref, json.load(open(report))


# per task: a generated row, its reference and another generated row, ids left out
_EVAL_ROWS = {
    "rouge": ({"summary_sentences": [["the", "cat"]]}, {"abstract": [["the", "cat"]]},
              {"summary_sentences": [["a", "dog"]]}),
    "plan": ({"plan": [{"entity": "A", "type": "TEAM-PTS"}, "EOT"]},
             {"plan": [{"entity": "A", "type": "TEAM-PTS"}, "EOT"]},
             {"plan": [{"entity": "B", "type": "TEAM-PTS"}, "EOT"]}),
}


@pytest.mark.parametrize("side, fld", [("gen", "summary_sentences"), ("ref", "abstract")])
def test_cli_eval_reports_a_string_token_field(tmp_path, side, fld):
    gen_row, ref_row, _ = _EVAL_ROWS["rouge"]
    rows = {"gen": dict(gen_row, id="d1"), "ref": dict(ref_row, id="d1")}
    rows[side][fld] = "the cat"  # would read as a list of its characters
    r, gen, _, report = _eval_rows(tmp_path, "rouge", [rows["gen"]], [rows["ref"]])
    assert r.returncode == 1, r.stderr
    assert (f"error: {gen}:1: id d1: '{fld}' must be a list of tokens or of token lists"
            in r.stderr)
    assert report["count"] == 0


@pytest.mark.parametrize("task", ["rouge", "plan"])
def test_cli_eval_reports_rows_without_ids(tmp_path, task):
    gen_row, ref_row, _ = _EVAL_ROWS[task]
    r, gen, ref, report = _eval_rows(tmp_path, task, [gen_row], [ref_row])
    assert r.returncode == 1, r.stderr
    assert f"error: {gen}:1: row has no 'id' field" in r.stderr
    assert f"error: {ref}:1: row has no 'id' field" in r.stderr
    assert report["count"] == 0 and report["examples"] == {}


@pytest.mark.parametrize("task", ["rouge", "plan"])
def test_cli_eval_scores_a_generated_id_once(tmp_path, task):
    gen_row, ref_row, other = _EVAL_ROWS[task]
    once, _, _, alone = _eval_rows(tmp_path, task, [dict(gen_row, id="a")],
                                   [dict(ref_row, id="a")])
    assert once.returncode == 0, once.stderr
    r, gen, _, report = _eval_rows(tmp_path, task,
                                   [dict(gen_row, id="a"), dict(other, id="a")],
                                   [dict(ref_row, id="a")])
    assert r.returncode == 1, r.stderr
    assert f"error: {gen}:2: id a seen before; not scored again" in r.stderr
    # the first row alone is scored, and counted once
    assert report == alone


@pytest.mark.parametrize("task", ["rouge", "plan"])
def test_cli_eval_keeps_the_first_reference_of_an_id(tmp_path, task):
    gen_row, ref_row, other = _EVAL_ROWS[task]
    _, _, _, alone = _eval_rows(tmp_path, task, [dict(gen_row, id="a")],
                                [dict(ref_row, id="a")])
    r, _, ref, report = _eval_rows(tmp_path, task, [dict(gen_row, id="a")],
                                   [dict(ref_row, id="a"), dict(other, id="a")])
    assert r.returncode == 1, r.stderr
    assert f"error: {ref}:2: id a seen before; not used" in r.stderr
    # scored against the first reference row, as if the second were absent
    assert report == alone


def test_cli_eval_reports_unmatched_ids(workspace, tmp_path):
    root, cfg_path, docs_path = workspace
    gen = str(tmp_path / "gen.jsonl")
    with open(gen, "w") as fh:
        fh.write(open(docs_path).readline())
        fh.write(json.dumps({"id": "nowhere", "sentences": [["a"]]}) + "\n")
    report = str(tmp_path / "report.json")
    r = run_cli("eval", "--task", "rouge", "--gen", gen, "--ref", docs_path,
                "--out", report)
    assert r.returncode == 1
    assert f"error: {gen}:2: id nowhere missing from reference file" in r.stderr
    assert json.load(open(report))["count"] == 1


def test_cli_eval_rouge_reads_the_reference_abstract(tmp_path):
    """A documents file as ``--ref`` holds each document's sentences and its
    abstract: Rouge scores the generated summary against the abstract."""
    summary = [["the", "cat", "sat"], ["on", "a", "mat"]]
    abstract = [["a", "cat", "sat"], ["on", "the", "mat"], ["today"]]
    document = [["the", "dog", "ran"], ["the", "cat", "sat", "down"], ["on", "a", "mat"]]
    gen, ref = str(tmp_path / "gen.jsonl"), str(tmp_path / "ref.jsonl")
    with open(gen, "w") as fh:
        fh.write(json.dumps({"id": "d1", "summary_sentences": summary}) + "\n")
    with open(ref, "w") as fh:
        fh.write(json.dumps({"id": "d1", "sentences": document, "abstract": abstract}) + "\n")
    report = str(tmp_path / "report.json")
    r = run_cli("eval", "--task", "rouge", "--gen", gen, "--ref", ref, "--out", report)
    assert r.returncode == 0, r.stderr
    got = json.load(open(report))["examples"]["d1"]
    cand = [t for sent in summary for t in sent]
    want = {f"rouge{k}": rouge_n(cand, [t for sent in abstract for t in sent], k)
            for k in (1, 2)}
    want["rougeL"] = rouge_l(cand, [t for sent in abstract for t in sent])
    for key, score in want.items():
        assert got[key] == {"p": score.precision, "r": score.recall, "f1": score.f1}
    # the document alone would score otherwise
    assert got["rouge1"]["f1"] != rouge_n(cand, [t for sent in document for t in sent], 1).f1


def test_cli_train_decode_eval_round(workspace, trained_ckpt):
    root, cfg_path, docs_path = workspace
    assert os.path.isdir(trained_ckpt)

    plans1 = str(root / "p1.jsonl")
    plans2 = str(root / "p2.jsonl")
    r = run_cli("decode", "--config", cfg_path, "--ckpt", trained_ckpt,
                "--in", docs_path, "--out", plans1)
    assert r.returncode == 0, r.stderr
    r = run_cli("decode", "--config", cfg_path, "--ckpt", trained_ckpt,
                "--in", docs_path, "--out", plans2)
    assert r.returncode == 0, r.stderr
    assert open(plans1, "rb").read() == open(plans2, "rb").read()

    report = str(root / "report.json")
    r = run_cli("eval", "--task", "rouge", "--gen", plans1, "--ref", docs_path,
                "--out", report)
    assert r.returncode == 0, r.stderr
    blob = json.load(open(report))
    assert set(blob["corpus"]) == {"rouge1", "rouge2", "rouge3", "rouge4", "rougeL"}


def test_cli_decode_config_mismatch_fails(workspace, trained_ckpt, tmp_path):
    root, cfg_path, docs_path = workspace
    other_cfg = str(tmp_path / "other.cfg")
    write_config(other_cfg, **{"model.dim": 32, "model.ffn_dim": 64})
    r = run_cli("decode", "--config", other_cfg, "--ckpt", trained_ckpt,
                "--in", docs_path, "--out", str(tmp_path / "x.jsonl"))
    assert r.returncode == 2
    assert "hash" in r.stderr


def test_cli_decode_torn_checkpoint_fails(workspace, trained_ckpt, tmp_path):
    root, cfg_path, docs_path = workspace
    torn = str(tmp_path / "torn")
    shutil.copytree(trained_ckpt, torn)
    payload = os.path.join(torn, "params.bin")
    size = os.path.getsize(payload)
    with open(payload, "r+b") as fh:
        fh.truncate(size - 12)
    out = str(tmp_path / "x.jsonl")
    r = run_cli("decode", "--config", cfg_path, "--ckpt", torn,
                "--in", docs_path, "--out", out)
    assert r.returncode == 2
    assert f"holds {size - 12} bytes, its manifest lists {size}" in r.stderr
    assert not os.path.exists(out)


def test_cli_decode_names_a_manifest_field_it_misses(workspace, trained_ckpt, tmp_path):
    root, cfg_path, docs_path = workspace
    bad = str(tmp_path / "bad")
    shutil.copytree(trained_ckpt, bad)
    manifest_path = os.path.join(bad, "manifest.json")
    manifest = json.load(open(manifest_path))
    del manifest["tensors"][1]["offset"]
    json.dump(manifest, open(manifest_path, "w"))
    out = str(tmp_path / "x.jsonl")
    r = run_cli("decode", "--config", cfg_path, "--ckpt", bad, "--in", docs_path,
                "--out", out)
    assert r.returncode == 2
    assert f"error: {manifest_path}: missing or mistyped field (KeyError('offset'))" in r.stderr
    assert "Traceback" not in r.stderr
    assert not os.path.exists(out)


def test_cli_decode_refuses_format_1_checkpoint(workspace, trained_ckpt, tmp_path):
    """A format-1 checkpoint (with the optimizer and document-position keys
    and the scorer bias) is refused by its version, before its config is read."""
    root, cfg_path, docs_path = workspace
    old = str(tmp_path / "old")
    shutil.copytree(trained_ckpt, old)
    manifest_path = os.path.join(old, "manifest.json")
    manifest = json.load(open(manifest_path))
    manifest["format_version"] = 1
    manifest["config"].update(use_doc_pos="auto", beta1=0.9, beta2=0.999, epsilon=1e-8)
    size = os.path.getsize(os.path.join(old, "params.bin"))
    manifest["tensors"].append({"name": "scorer.b", "shape": [1], "offset": size, "size": 1})
    json.dump(manifest, open(manifest_path, "w"))
    with open(os.path.join(old, "params.bin"), "ab") as fh:
        fh.write(bytes(8))
    out = str(tmp_path / "x.jsonl")
    r = run_cli("decode", "--config", cfg_path, "--ckpt", old, "--in", docs_path,
                "--out", out)
    assert r.returncode == 2
    assert "unsupported checkpoint format 1" in r.stderr
    assert "unknown config key" not in r.stderr
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag", [["--max-steps", "0"], ["--max-steps", "-1"],
                                  ["--beam", "0"]])
def test_cli_decode_rejects_budgets_below_one(workspace, trained_ckpt, tmp_path, flag):
    root, cfg_path, docs_path = workspace
    out = str(tmp_path / "x.jsonl")
    r = run_cli("decode", "--config", cfg_path, "--ckpt", trained_ckpt,
                "--in", docs_path, "--out", out, *flag)
    assert r.returncode == 2
    assert "must be positive" in r.stderr
    assert not os.path.exists(out)


def test_cli_eval_plan_identical_plans(tmp_path):
    plans = [{"id": "g1", "plan": [
        {"entity": "TeamA", "type": "TEAM-PTS"},
        {"entity": "P1", "type": "PLAYER-PTS"},
        "EOS", "EOT"]}]
    gen = str(tmp_path / "gen.jsonl")
    ref = str(tmp_path / "ref.jsonl")
    for path in (gen, ref):
        with open(path, "w") as fh:
            for row in plans:
                fh.write(json.dumps(row) + "\n")
    report = str(tmp_path / "rep.json")
    r = run_cli("eval", "--task", "plan", "--gen", gen, "--ref", ref,
                "--out", report)
    assert r.returncode == 0, r.stderr
    blob = json.load(open(report))
    assert blob["corpus"]["cs_f1"] == 1.0
    assert blob["corpus"]["co"] == 1.0


def test_cli_stats_single_bin(tmp_path):
    rows = [{"id": f"p{i}", "plan": [
        {"entity": "A", "type": "TEAM-PTS"},
        {"entity": "B", "type": "TEAM-PTS"},
        "EOT"]} for i in range(3)]
    path = str(tmp_path / "plans.jsonl")
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    hist = str(tmp_path / "hist.csv")
    r = run_cli("stats", "--in", path, "--out", hist)
    assert r.returncode == 0, r.stderr
    lines = open(hist).read().strip().splitlines()
    assert lines[0] == "length,count,density"
    assert lines[1] == "2,3,1.0"
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["mean_entries"] == 2.0


def test_cli_stats_keeps_the_first_plan_of_an_id(tmp_path):
    path = str(tmp_path / "plans.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"id": "g1", "plan": [{"entity": "A", "type": "TEAM-PTS"},
                                                  "EOT"]}) + "\n")
        fh.write(json.dumps({"id": "g1", "plan": [{"entity": "A", "type": "TEAM-PTS"},
                                                  {"entity": "B", "type": "TEAM-PTS"},
                                                  "EOT"]}) + "\n")
    hist = str(tmp_path / "hist.csv")
    r = run_cli("stats", "--in", path, "--out", hist)
    assert r.returncode == 1, r.stderr
    assert f"error: {path}:2: id g1 seen before; not used" in r.stderr
    assert open(hist).read().splitlines() == ["length,count,density", "1,1,1.0"]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["plans"] == 1 and summary["mean_entries"] == 1.0


@pytest.mark.parametrize("command", ["stats", "eval"])
def test_cli_reports_lines_that_are_not_objects(tmp_path, command):
    plan = {"id": "g1", "plan": [{"entity": "A", "type": "TEAM-PTS"}, "EOT"]}
    path = str(tmp_path / "plans.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps(plan) + '\n[1, 2]\n"text"\n')
    args = (["stats", "--in", path] if command == "stats"
            else ["eval", "--task", "plan", "--gen", path, "--ref", path])
    r = run_cli(*args, "--out", str(tmp_path / "out"))
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    for lineno, kind in ((2, "list"), (3, "str")):
        assert f"error: {path}:{lineno}: expected a JSON object, got {kind}" in r.stderr


def test_cli_linearize(workspace, tmp_path):
    from stepsum.acceptance import table3_game

    games = str(tmp_path / "games.jsonl")
    with open(games, "w") as fh:
        fh.write(json.dumps(table3_game()) + "\n")
    out = str(tmp_path / "units.jsonl")
    r = run_cli("linearize", "--in", games, "--out", out)
    assert r.returncode == 0, r.stderr
    row = json.loads(open(out).readline())
    assert "team points scored of Chicago_Bulls is 100 which is 1st best" in row["units"]
    assert "Chicago_Bulls|TEAM-PTS" in row["records"]


def test_cli_reports_units_dropped_over_long_budget(workspace, tmp_path):
    root, _, docs_path = workspace
    cfg_path = str(tmp_path / "etc.cfg")
    # 6 units of 5 tokens behind a 1-token stop unit: a budget of 20 keeps 3;
    # a decoded prefix of 3 such units fills summary_budget 16 with its begin marker
    write_config(cfg_path, **{
        "run.encoder": "etc", "model.etc_layers": 1, "model.max_sent_len": 5,
        "model.long_budget": 20,
        "model.summary_budget": 16, "model.global_cap": 16, "model.local_radius": 2,
        "optimizer.train_steps": 2, "optimizer.checkpoint_every": 1})
    ckpt = str(tmp_path / "ckpt")
    r = run_cli("train", "--config", cfg_path, "--train", docs_path,
                "--valid", docs_path, "--out", ckpt)
    assert r.returncode == 0, r.stderr
    ids = [json.loads(line)["id"] for line in open(docs_path)]
    want = [f"warning: {docs_path}:{i + 1}: document {doc_id}: dropped 3 trailing "
            "units over long_budget" for i, doc_id in enumerate(ids)]
    assert r.stderr.splitlines() == want + want  # train file, then valid file

    out = str(tmp_path / "plans.jsonl")
    r = run_cli("decode", "--config", cfg_path, "--ckpt", os.path.join(ckpt, "best"),
                "--in", docs_path, "--out", out)
    assert r.returncode == 0, r.stderr
    assert r.stderr.splitlines() == want
    assert r.stdout == ""
    for line in open(out):
        units = [s["unit"] for s in json.loads(line)["plan"] if isinstance(s, dict)]
        assert all(u < 3 for u in units)


def _trim_warnings(err, path):
    return [ln for ln in err.splitlines()
            if ln.startswith(f"warning: {path}:") and "over long_budget" in ln]


@pytest.mark.parametrize("task", ["cnndm", "rotowire"])
def test_cli_train_and_decode_prepare_the_same_inputs(tmp_path, monkeypatch, capsys, task):
    """``train``'s examples and the scorers ``decode`` builds hold equal
    prepared documents, and each command warns once per trimmed document."""
    from stepsum import cli
    from stepsum.acceptance import table3_game

    cfg_path, train_path = str(tmp_path / "run.cfg"), str(tmp_path / "train.jsonl")
    valid_path, plans_path = str(tmp_path / "valid.jsonl"), str(tmp_path / "plans.jsonl")
    if task == "cnndm":
        # 5-token units behind a 1-token stop unit: a budget of 31 keeps 6, so
        # only the doubled document loses units
        write_config(cfg_path, **{
            "run.encoder": "etc", "model.etc_layers": 1, "model.max_sent_len": 5,
            "model.long_budget": 31, "model.summary_budget": 32, "model.global_cap": 32,
            "model.local_radius": 2, "optimizer.train_steps": 2,
            "optimizer.checkpoint_every": 1})
        write_docs(valid_path, n_docs=2)
        first = json.loads(open(valid_path).readline())
        with open(train_path, "w") as fh:
            fh.write(open(valid_path).read())
            fh.write(json.dumps(dict(first, id="long",
                                     sentences=first["sentences"] * 2)) + "\n")
        plan_flags = []
    else:
        write_config(cfg_path, **{
            "run.task": "rotowire", "run.encoder": "etc", "model.etc_layers": 1,
            "model.max_sent_len": 12, "model.long_budget": 240,
            "model.summary_budget": 60, "model.global_cap": 32, "model.local_radius": 4,
            "optimizer.train_steps": 2, "optimizer.checkpoint_every": 1,
            "data.max_units": 62})
        for path in (train_path, valid_path):
            with open(path, "w") as fh:
                fh.write(json.dumps(table3_game()) + "\n")
        with open(plans_path, "w") as fh:
            fh.write(json.dumps({"id": "table3", "plan": [
                {"entity": "Chicago_Bulls", "type": "TEAM-PTS"}, "EOT"]}) + "\n")
        plan_flags = ["--train-plans", plans_path, "--valid-plans", plans_path]

    trained, scored = [], []
    real_train, scorer_cls = cli.train, cli.ModelStepScorer

    def recording_train(cfg, model, vocab, train_ex, *args, **kwargs):
        trained.extend({id(ex.doc): ex.doc for ex in train_ex}.values())
        return real_train(cfg, model, vocab, train_ex, *args, **kwargs)

    def recording_scorer(model, cfg, vocab, prep):
        scored.append(prep)
        return scorer_cls(model, cfg, vocab, prep)

    monkeypatch.setattr(cli, "train", recording_train)
    monkeypatch.setattr(cli, "ModelStepScorer", recording_scorer)
    ckpt = str(tmp_path / "ckpt")
    assert cli.main(["train", "--config", cfg_path, "--train", train_path,
                     "--valid", valid_path, "--out", ckpt, *plan_flags]) == 0
    train_warnings = _trim_warnings(capsys.readouterr().err, train_path)
    assert cli.main(["decode", "--config", cfg_path, "--ckpt", os.path.join(ckpt, "best"),
                     "--in", train_path, "--out", str(tmp_path / "decoded.jsonl")]) == 0
    decode_warnings = _trim_warnings(capsys.readouterr().err, train_path)

    assert trained and trained == scored
    assert train_warnings == decode_warnings
    if task == "cnndm":
        assert train_warnings == [f"warning: {train_path}:3: document long: dropped 6 "
                                  "trailing units over long_budget"]


@pytest.mark.parametrize("file_steps,flag_steps,fits", [
    (5, None, False), (4, "5", False), (4, None, True)], ids=["file", "flag", "fits"])
def test_cli_decode_checks_summary_budget_up_front(tmp_path, capsys, file_steps,
                                                   flag_steps, fits):
    from stepsum import cli

    cfg_path = str(tmp_path / "etc.cfg")
    # 1 + 3 * 5 = 16 slots hold the prefixes of max_steps 4; max_steps 5 needs 21
    write_config(cfg_path, **{
        "run.encoder": "etc", "model.max_sent_len": 5, "model.summary_budget": 16,
        "decode.max_steps": file_steps})
    out = tmp_path / "plans.jsonl"
    argv = ["decode", "--config", cfg_path, "--ckpt", str(tmp_path / "no-ckpt"),
            "--in", str(tmp_path / "no-docs.jsonl"), "--out", str(out)]
    if flag_steps is not None:
        argv += ["--max-steps", flag_steps]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and not out.exists()
    budget_error = ("error: summary_budget 16 cannot hold a decoded plan prefix: "
                    "max_steps 5 and max_sent_len 5 need 21")
    # a config that fits gets past the check, as far as the missing checkpoint
    assert (err[0] == budget_error) != fits


def test_cli_decode_reports_incomplete_plans(workspace, trained_ckpt, tmp_path,
                                             monkeypatch, capsys):
    # a document always keeps its stop candidate, so real plans never come
    # back incomplete; flag every other one to see the count reported
    from stepsum import cli

    decode = cli.beam_decode
    seen = []

    def flag_every_other(*args, **kwargs):
        result = decode(*args, **kwargs)
        seen.append(result)
        result.incomplete = len(seen) % 2 == 1
        return result

    monkeypatch.setattr(cli, "beam_decode", flag_every_other)
    root, cfg_path, docs_path = workspace
    out = str(tmp_path / "plans.jsonl")
    rc = cli.main(["decode", "--config", cfg_path, "--ckpt", trained_ckpt,
                   "--in", docs_path, "--out", out])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    assert captured.err.splitlines() == ["warning: 3 of 6 plans incomplete"]
    assert [json.loads(line)["incomplete"] for line in open(out)] == [
        True, False, True, False, True, False]
