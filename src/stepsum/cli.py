"""Command-line surface: oracle, train, decode, eval, linearize, selfcheck, stats.

Every command is replayable: identical inputs and seed produce identical
outputs. Malformed input lines are reported with their line number and
skipped; the run continues and exits nonzero at the end. No command reads
the environment.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from typing import Callable

from . import data as datalib
from . import rotowire
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    verify_config_match,
)
from .config import ConfigError, RunConfig, load_config
from .data import (
    Document,
    PreparedDoc,
    StepExample,
    Vocab,
    examples_from_plan,
    parse_document,
    prepare_cnndm,
    prepare_rotowire,
    read_jsonl,
    rotowire_corpus_sentences,
    write_jsonl,
)
from .decoding import DecodeConstraints, beam_decode, greedy_decode_with_repeat_exceptions
from .metrics import co_score, cs_scores, rouge_l, rouge_n, stem_tokens
from .models import ModelStepScorer, assemble_for, build_model, load_model, trim_for_flat_budget
from .oracle import oracle_full
from .plan import PlanStep, RowError, fields, sentences, string, tokens, unit_step
from .rotowire import GameFormatError, parse_game, plan_from_json, plan_to_json
from .training import TrainingDiverged, train


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _report_line_errors(path: str, errors: list[tuple[int, str]]) -> None:
    for lineno, msg in sorted(errors):
        _err(f"{path}:{lineno}: {msg}")


# every row kind's id; a plans-file row, which eval --task plan reads on both sides
_ROW_ID = fields({"id": string})
_PLANS_ROW = fields({"id": string, "plan": plan_from_json})


def _load_rows(path: str, read: Callable, repeat: str = "not used",
               failed: dict[str, str] | None = None) -> tuple[list, list[tuple[int, str]]]:
    """``(line, id, read(row))`` of each row ``read`` accepts, and the line errors.

    A repeated id is a line error ending in ``repeat``; ``failed`` maps each new
    id that ``read`` rejects to its error. A game's warnings are printed."""
    rows, errors = read_jsonl(path, numbered=True)
    out = []
    seen: set[str] = set()
    for lineno, row in rows:
        try:
            rid = _ROW_ID(row)["id"]
            if rid in seen:
                raise ValueError(f"id {rid} seen before; {repeat}")
        except ValueError as e:
            errors.append((lineno, str(e)))
            continue
        seen.add(rid)
        try:
            value = read(row)
        except ValueError as e:
            errors.append((lineno, str(e)))
            if failed is not None:
                failed[rid] = str(e)
            continue
        if isinstance(value, rotowire.RotowireGame):
            for msg in value.warnings:
                _warn(f"{path}:{lineno}: game {rid}: {msg}")
        out.append((lineno, rid, value))
    return out, errors


def _prepare(cfg: RunConfig, vocab: Vocab, source: Document | rotowire.RotowireGame,
             path: str, lineno: int) -> PreparedDoc:
    """A document or game in model terms, within the config's limits.

    The flat encoder drops the units past its long budget, and says so.
    """
    if cfg.task == "cnndm":
        prep = prepare_cnndm(source, vocab, max_doc_sents=cfg.max_doc_sents,
                             max_sent_len=cfg.max_sent_len)
    else:
        prep = prepare_rotowire(source, vocab, max_units=cfg.max_units,
                                max_sent_len=cfg.max_sent_len)
    if cfg.encoder != "etc":
        return prep
    trimmed = trim_for_flat_budget(prep, cfg, vocab)
    dropped = prep.n_real_units - trimmed.n_real_units
    if dropped:
        _warn(f"{path}:{lineno}: document {prep.doc_id}: dropped {dropped} trailing "
              "units over long_budget")
    return trimmed


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    docs, errors = _load_rows(args.infile, parse_document)
    rows = []
    for lineno, _, d in docs:
        try:
            result = oracle_full(d.sentences, d.abstract_tokens, cfg.max_steps)
        except ValueError as e:
            errors.append((lineno, f"document {d.doc_id}: {e}"))
            continue
        rows.append({"id": d.doc_id, "selected": result.selected, "score": result.score})
    _report_line_errors(args.infile, errors)
    write_jsonl(args.out, rows)
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# dataset assembly shared by train
# ---------------------------------------------------------------------------


def _prepare_corpus(cfg: RunConfig, path: str, plans_path: str | None,
                    vocab: Vocab | None) -> tuple[Vocab, list[StepExample], bool]:
    """Returns (vocab, examples, whether any line failed).

    Documents take their plans from the oracle, games from the plans file.
    Failed lines are reported against the file they come from.
    """
    sources, errors = _load_rows(path, parse_document if cfg.task == "cnndm" else parse_game)
    plans: dict[str, tuple[int, list[PlanStep]]] = {}
    plan_errors: list[tuple[int, str]] = []
    if cfg.task == "rotowire":
        if plans_path is None:
            raise ConfigError("rotowire training needs --train-plans/--valid-plans")
        plan_rows, plan_errors = _load_rows(plans_path, _PLANS_ROW)
        plans = {rid: (lineno, row["plan"]) for lineno, rid, row in plan_rows}
        _report_line_errors(plans_path, plan_errors)
    if vocab is None:
        vocab = Vocab.from_corpus(
            (s for _, _, d in sources for s in d.sentences) if cfg.task == "cnndm"
            else rotowire_corpus_sentences([g for _, _, g in sources], cfg.max_units))
    examples: list[StepExample] = []
    for lineno, rid, source in sources:
        if cfg.task == "cnndm":
            prep = _prepare(cfg, vocab, source, path, lineno)
            try:
                result = oracle_full(source.sentences[: prep.n_real_units],
                                     source.abstract_tokens, cfg.max_steps)
            except ValueError as e:
                errors.append((lineno, f"document {rid}: {e}"))
                continue
            plan = [unit_step(i) for i in sorted(result.selected)]
        else:
            if rid not in plans:
                errors.append((lineno, f"game {rid} has no reference plan"))
                continue
            plan_line, reference = plans[rid]
            prep = _prepare(cfg, vocab, source, path, lineno)
            for ref in rotowire.missing_plan_records(prep.records, reference):
                _warn(f"{plans_path}:{plan_line}: game {rid}: plan record "
                      f"{ref.entity}|{ref.type} was prefiltered away")
            plan = datalib.align_plan_to_units(reference, prep)
        examples.extend(examples_from_plan(prep, plan))
    _report_line_errors(path, errors)
    return vocab, examples, bool(errors or plan_errors)


def _check_flat_layouts(cfg: RunConfig, vocab: Vocab, examples: list[StepExample]) -> None:
    """Fail before training when some reference prefix does not fit the flat layout.

    Each document's examples come in growing-prefix order, so its last one
    holds the longest prefix, and a prefix that fits leaves room for all
    shorter ones.
    """
    if cfg.encoder != "etc":
        return
    for ex in {id(ex.doc): ex for ex in examples}.values():
        assemble_for(cfg, vocab, ex.doc, ex.prefix)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    vocab, train_ex, failed1 = _prepare_corpus(cfg, args.train, args.train_plans, None)
    _, valid_ex, failed2 = _prepare_corpus(cfg, args.valid, args.valid_plans, vocab)
    _check_flat_layouts(cfg, vocab, train_ex + valid_ex)
    model = build_model(cfg, len(vocab))
    try:
        result = train(cfg, model, vocab, train_ex, valid_ex, args.out,
                       log=lambda msg: print(msg))
    except TrainingDiverged as e:
        _err(str(e))
        return 2
    print(f"best step {result.best_step} valid loss {result.best_valid_loss:.4f}")
    return 1 if (failed1 or failed2) else 0


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def cmd_decode(args) -> int:
    cfg = load_config(args.config)
    if cfg.task == "rotowire":
        if args.triblk or args.beam not in (None, 1):
            raise ConfigError("table-mode decode is greedy and has no trigram blocking; "
                              "drop --beam (or pass 1) and --triblk")
        if cfg.trigram_blocking or not cfg.no_repeat:
            raise ConfigError("table-mode decode always blocks repeated records and never "
                              "blocks trigrams; drop no_repeat and trigram_blocking")
    # the --beam and --max-steps overrides obey the same rules as the file
    if args.beam is not None:
        cfg = replace(cfg, beam_size=args.beam)
    if args.max_steps is not None:
        cfg = replace(cfg, max_steps=args.max_steps)
    cfg.validate()
    # the longest prefix decode scores: the plan-begin marker, then
    # max_steps - 1 elements of up to max_sent_len tokens each
    need = 1 + (cfg.max_steps - 1) * cfg.max_sent_len
    if cfg.encoder == "etc" and need > cfg.summary_budget:
        raise ConfigError(f"summary_budget {cfg.summary_budget} cannot hold a decoded plan "
                          f"prefix: max_steps {cfg.max_steps} and max_sent_len "
                          f"{cfg.max_sent_len} need {need}")
    manifest, arrays = load_checkpoint(args.ckpt)
    verify_config_match(manifest, cfg)
    vocab = Vocab.from_token_list(manifest.vocab)
    model = load_model(cfg, len(vocab), arrays)

    constraints = DecodeConstraints(
        no_repeat=cfg.no_repeat,
        trigram_blocking=args.triblk or cfg.trigram_blocking,
    )
    sources, errors = _load_rows(args.infile,
                                 parse_document if cfg.task == "cnndm" else parse_game)
    rows = []
    incomplete = 0
    for lineno, _, source in sources:
        prep = _prepare(cfg, vocab, source, args.infile, lineno)
        scorer = ModelStepScorer(model, cfg, vocab, prep)
        if cfg.task == "cnndm":
            result = beam_decode(scorer, cfg.beam_size, cfg.max_steps, constraints)
            incomplete += result.incomplete
            chosen = sorted(s.unit for s in result.steps if s.kind == "unit")
            rows.append({
                "id": prep.doc_id,
                "plan": plan_to_json(result.steps),
                "log_prob": result.log_prob,
                "incomplete": result.incomplete,
                "summary_sentences": [source.sentences[i] for i in chosen],
            })
        else:
            steps = greedy_decode_with_repeat_exceptions(scorer, cfg.max_steps)
            rows.append({"id": prep.doc_id, "plan": plan_to_json(steps)})
    _report_line_errors(args.infile, errors)
    if incomplete:
        _warn(f"{incomplete} of {len(rows)} plans incomplete")
    write_jsonl(args.out, rows)
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

# eval's text rows: a generated row's text is decode's summary, or a documents
# file's sentences; a reference row's is its abstract, when it has one
_GENERATED_TEXT = ("sentences", "summary_sentences", "abstract", "tokens")
_REFERENCE_TEXT = ("abstract",) + _GENERATED_TEXT


def _text(row: dict, order: tuple[str, ...]) -> list[str]:
    """The first field of ``order`` the row has: tokens or token lists, as one list."""
    for name in order:
        if name in row:
            value = row[name]
            if type(value) is not list:
                raise RowError((name,), "a list of tokens or of token lists")
            if value and type(value[0]) is list:
                return [t for sent in sentences(value, (name,)) for t in sent]
            return tokens(value, (name,))
    raise ValueError(f"no token field among {order}")


def _rouge_scores(gen: dict, ref_tokens: list[str], stem: bool) -> tuple[dict, dict[str, float]]:
    """A row's Rouge report and the F1s its corpus means add up."""
    cand = _text(gen, _GENERATED_TEXT)
    if stem:
        cand, ref_tokens = stem_tokens(cand), stem_tokens(ref_tokens)
    scores = {}
    for k in (1, 2, 3, 4):
        s = rouge_n(cand, ref_tokens, k)
        scores[f"rouge{k}"] = {"p": s.precision, "r": s.recall, "f1": s.f1}
    s = rouge_l(cand, ref_tokens)
    scores["rougeL"] = {"p": s.precision, "r": s.recall, "f1": s.f1}
    return scores, {key: val["f1"] for key, val in scores.items()}


def _plan_scores(gen: dict, ref: dict) -> tuple[dict, dict[str, float]]:
    """A row's plan report (CS and CO) and the figures its corpus means add up."""
    gen_recs = rotowire.plan_records(_PLANS_ROW(gen)["plan"])
    ref_recs = rotowire.plan_records(ref["plan"])
    cs = cs_scores(gen_recs, ref_recs)
    csf = cs_scores(gen_recs, ref_recs, drop_name_city_date=True)
    co = co_score([rotowire.record_token(r) for r in gen_recs],
                  [rotowire.record_token(r) for r in ref_recs])
    report = {
        "cs": {"p": cs.precision, "r": cs.recall, "f1": cs.f1},
        "cs_filtered": {"p": csf.precision, "r": csf.recall, "f1": csf.f1},
        "co": co,
    }
    return report, {"cs_p": cs.precision, "cs_r": cs.recall, "cs_f1": cs.f1,
                    "cs_filtered_f1": csf.f1, "co": co}


def cmd_eval(args) -> int:
    if args.task == "rouge":
        read_ref = partial(_text, order=_REFERENCE_TEXT)
        score_row, sums = partial(_rouge_scores, stem=args.stem), {}
    else:
        read_ref, score_row = _PLANS_ROW, _plan_scores
        sums = dict.fromkeys(("cs_p", "cs_r", "cs_f1", "cs_filtered_f1", "co"), 0.0)
    failed: dict[str, str] = {}
    ref_rows, rerr = _load_rows(args.ref, read_ref, failed=failed)
    refs = {rid: ref for _, rid, ref in ref_rows}
    # a generated row is read as it is scored, so its errors name its id
    gen_rows, gerr = _load_rows(args.gen, dict, "not scored again")
    examples: dict[str, dict] = {}
    for lineno, rid, row in gen_rows:
        if rid not in refs:
            gerr.append((lineno, f"id {rid}: {failed[rid]}" if rid in failed
                         else f"id {rid} missing from reference file"))
            continue
        try:
            examples[rid], terms = score_row(row, refs[rid])
        except ValueError as e:
            gerr.append((lineno, f"id {rid}: {e}"))
            continue
        for key, val in terms.items():
            sums[key] = sums.get(key, 0.0) + val
    n = len(examples)
    report = {"task": args.task, "examples": examples, "count": n,
              "corpus": {k: v / max(n, 1) for k, v in sums.items()}}

    _report_line_errors(args.gen, gerr)
    _report_line_errors(args.ref, rerr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 1 if (gerr or rerr) else 0


# ---------------------------------------------------------------------------
# linearize / stats / selfcheck
# ---------------------------------------------------------------------------


def cmd_linearize(args) -> int:
    games, errors = _load_rows(args.infile, parse_game)
    _report_line_errors(args.infile, errors)
    rows = []
    for _, _, game in games:
        refs, units = rotowire.templated_units(game, max_units=10**9)
        rows.append({
            "id": game.game_id,
            "units": [" ".join(u) for u in units],
            "records": [rotowire.record_token(r) for r in refs],
        })
    write_jsonl(args.out, rows)
    return 1 if errors else 0


def cmd_stats(args) -> int:
    plans, errors = _load_rows(args.infile, _PLANS_ROW)
    _report_line_errors(args.infile, errors)
    stats = rotowire.plan_stats([row["plan"] for _, _, row in plans])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("length,count,density\n")
        total = sum(stats.length_histogram.values()) or 1
        for length in sorted(stats.length_histogram):
            count = stats.length_histogram[length]
            fh.write(f"{length},{count},{count / total}\n")
    print(json.dumps({
        "plans": stats.plans,
        "mean_entries": stats.mean_entries,
        "mean_sentences": stats.mean_sentences,
    }, sort_keys=True))
    return 1 if errors else 0


def cmd_selfcheck(_args) -> int:
    # imported here, so that no other command pays for loading the release gate
    from .acceptance import run_fast_criteria

    return 0 if run_fast_criteria(print) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepsum",
        description="Stepwise extractive content planning trainer and tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="greedy extractive oracles for documents")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("train", help="train a stepwise scorer")
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--train-plans")
    p.add_argument("--valid-plans")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("decode", help="decode plans with a trained checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beam", type=int)
    p.add_argument("--max-steps", type=int, dest="max_steps")
    p.add_argument("--triblk", action="store_true")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("eval", help="score generated summaries or plans")
    p.add_argument("--task", required=True, choices=["rouge", "plan"])
    p.add_argument("--gen", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stem", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("linearize", help="render games as templated unit strings")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_linearize)

    p = sub.add_parser("selfcheck", help="run the invariant and gradient suite")
    p.set_defaults(fn=cmd_selfcheck)

    p = sub.add_parser("stats", help="plan length statistics and histogram")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, GameFormatError, OSError, ValueError) as e:
        _err(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
