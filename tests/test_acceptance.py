"""The release gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The overfitting check trains both encoders at the
desk preset and is the long pole (several minutes single-core).
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import cli_env

from stepsum import acceptance
from stepsum.config import config_from_dict
from stepsum.data import Vocab, examples_from_plan, prepare_cnndm
from stepsum.decoding import DecodeConstraints, beam_decode
from stepsum.models import ModelStepScorer, build_model, trim_for_flat_budget
from stepsum.plan import END_STEP, unit_step
from stepsum.synthetic import gold_plan, make_overfit_corpus
from stepsum.training import next_step_accuracy, train


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE] criterion {number} ({name}): "
          f"{'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_gradient_suite():
    ok, detail = acceptance.criterion_gradient_suite()
    report(1, "gradient suite", ok, detail)
    assert ok, detail


def test_criterion_2_sparsity_accounting():
    ok, detail = acceptance.criterion_sparsity()
    report(2, "sparsity accounting", ok, detail)
    assert ok, detail


def test_criterion_3_reachability():
    ok, detail = acceptance.criterion_reachability()
    report(3, "reachability", ok, detail)
    assert ok, detail


def _overfit_one(encoder: str, docs, gold) -> tuple[bool, str, float]:
    cfg = config_from_dict({
        "task": "cnndm", "encoder": encoder, "seed": 11,
        "train_steps": 5000, "checkpoint_every": 200,
    })
    vocab = Vocab.from_corpus(s for d in docs for s in d.sentences)
    preps, examples = [], []
    for d in docs:
        prep = prepare_cnndm(d, vocab, max_doc_sents=cfg.max_doc_sents,
                             max_sent_len=cfg.max_sent_len)
        if encoder == "etc":
            prep = trim_for_flat_budget(prep, cfg, vocab)
        preps.append((prep, gold[d.doc_id]))
        examples.extend(examples_from_plan(prep, gold_plan(gold[d.doc_id])))
    model = build_model(cfg, len(vocab))
    state = {"acc": 0.0, "match": 0.0}

    def plan_match(m) -> float:
        hits = 0
        constraints = DecodeConstraints(no_repeat=cfg.no_repeat)
        for prep, marked in preps:
            scorer = ModelStepScorer(m, cfg, vocab, prep)
            result = beam_decode(scorer, cfg.beam_size, cfg.max_steps, constraints)
            want = [unit_step(i) for i in marked] + [END_STEP]
            hits += result.steps == want
        return hits / len(preps)

    def stop(m, step) -> bool:
        acc = next_step_accuracy(m, cfg, vocab, examples)
        state["acc"] = acc
        if acc >= 0.99:
            state["match"] = plan_match(m)
            if state["match"] >= 0.95:
                return True
        return False

    t0 = time.time()
    result = train(cfg, model, vocab, examples, examples[:64], stop_check=stop)
    elapsed = time.time() - t0
    ok = (state["acc"] >= 0.99 and state["match"] >= 0.95
          and result.steps_run <= 5000)
    detail = (f"{encoder}: acc {state['acc']:.3f}, plan match {state['match']:.3f} "
              f"at step {result.steps_run} in {elapsed / 60:.1f} min")
    return ok, detail, elapsed


@pytest.mark.slow
def test_criterion_4_overfit_learning():
    docs, gold = make_overfit_corpus(n_docs=64, n_sents=12, n_gold=3, seed=7)
    ok_h, detail_h, t_h = _overfit_one("hibert", docs, gold)
    ok_e, detail_e, t_e = _overfit_one("etc", docs, gold)
    within_budget = (t_h + t_e) < 15 * 60
    ok = ok_h and ok_e and within_budget
    detail = f"{detail_h}; {detail_e}; total {(t_h + t_e) / 60:.1f} min"
    report(4, "overfit learning", ok, detail)
    assert ok, detail


def test_criterion_5_decoder_exactness():
    ok, detail = acceptance.criterion_decoder_exactness()
    report(5, "decoder exactness", ok, detail)
    assert ok, detail


def test_criterion_6_oracle_quality():
    ok, detail = acceptance.criterion_oracle_quality()
    report(6, "oracle quality", ok, detail)
    assert ok, detail


def test_criterion_7_metric_oracles():
    ok, detail = acceptance.criterion_metric_oracles()
    report(7, "metric oracles", ok, detail)
    assert ok, detail


def test_criterion_8_rotowire_fidelity(tmp_path):
    ok, detail = acceptance.criterion_rotowire_fidelity()

    # stats harness on a plan corpus, reported for comparison against the
    # published corpus means (informational; plans here are synthetic)
    plans = []
    rng = np.random.default_rng(3)
    for i in range(20):
        plan = []
        for s in range(int(rng.integers(2, 5))):
            for e in range(int(rng.integers(2, 7))):
                plan.append({"entity": f"E{e}", "type": "TEAM-PTS"})
            plan.append("EOS")
        plan.append("EOT")
        plans.append({"id": f"p{i}", "plan": plan})
    path = tmp_path / "plans.jsonl"
    with open(path, "w") as fh:
        for row in plans:
            fh.write(json.dumps(row) + "\n")
    out = tmp_path / "hist.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "stepsum.cli", "stats", "--in", str(path),
         "--out", str(out)],
        capture_output=True, text=True, env=cli_env())
    ok = ok and proc.returncode == 0
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    detail += (f"; stats harness reports {summary['mean_entries']:.2f} entries / "
               f"{summary['mean_sentences']:.2f} sentences per plan "
               f"(published corpus: 59.24 / 12.72)")
    report(8, "table formatting fidelity", ok, detail)
    assert ok, detail


def test_criterion_9_reproducibility(tmp_path):
    docs, gold = make_overfit_corpus(n_docs=4, n_sents=6, n_gold=2, sent_len=5,
                                     seed=3)
    docs_path = tmp_path / "docs.jsonl"
    with open(docs_path, "w") as fh:
        for d in docs:
            fh.write(json.dumps({
                "id": d.doc_id, "sentences": d.sentences,
                "abstract": [d.sentences[i] for i in gold[d.doc_id]],
            }) + "\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "[run]\ntask = cnndm\nencoder = hibert\nseed = 3\n"
        "[model]\ndim = 16\nffn_dim = 32\nsent_layers = 1\ndoc_layers = 1\n"
        "max_sent_len = 8\nmax_doc_sents = 16\n"
        "[optimizer]\ntrain_steps = 20\ncheckpoint_every = 10\nbatch_size = 4\n"
        "learning_rate = 0.002\n"
    )

    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "stepsum.cli", *args],
                              capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        return proc

    problems = []
    for label, args, outputs in [
        ("oracle", ["oracle", "--config", str(cfg_path), "--in", str(docs_path)],
         ["oracles.jsonl"]),
        ("train", ["train", "--config", str(cfg_path), "--train", str(docs_path),
                   "--valid", str(docs_path)], ["ckpt"]),
    ]:
        blobs = []
        for attempt in ("a", "b"):
            outdir = tmp_path / f"{label}_{attempt}"
            outdir.mkdir(exist_ok=True)
            if label == "oracle":
                out = outdir / outputs[0]
                run(*args, "--out", str(out))
                blobs.append(out.read_bytes())
            else:
                out = outdir / outputs[0]
                run(*args, "--out", str(out))
                best = out / "best"
                blobs.append((best / "manifest.json").read_bytes()
                             + (best / "params.bin").read_bytes())
        if blobs[0] != blobs[1]:
            problems.append(f"{label} outputs differ between identical runs")

    # checkpoint round trip and decode equality
    ckpt = tmp_path / "train_a" / "ckpt" / "best"
    plans = []
    for attempt in ("a", "b"):
        out = tmp_path / f"plans_{attempt}.jsonl"
        run("decode", "--config", str(cfg_path), "--ckpt", str(ckpt),
            "--in", str(docs_path), "--out", str(out))
        plans.append(out.read_bytes())
    if plans[0] != plans[1]:
        problems.append("decode outputs differ between identical runs")

    from stepsum.checkpoint import load_checkpoint, save_checkpoint

    manifest, arrays = load_checkpoint(str(ckpt))
    resaved = tmp_path / "resaved"
    from stepsum.autodiff import Tensor

    # ``arrays`` holds the tensors in payload order
    tensors = {name: Tensor(data, requires_grad=True) for name, data in arrays.items()}
    save_checkpoint(str(resaved), tensors, manifest.config, manifest.vocab)
    for name in ("manifest.json", "params.bin"):
        if (ckpt / name).read_bytes() != (resaved / name).read_bytes():
            problems.append(f"checkpoint {name} not byte-identical after round trip")

    ok = not problems
    detail = problems[0] if problems else (
        "oracle, train, decode byte-identical across runs; checkpoint "
        "round-trip byte-identical")
    report(9, "reproducibility", ok, detail)
    assert ok, detail
