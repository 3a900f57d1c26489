"""One round of a workload through the real ``stepsum`` commands, with checks.

Every command runs in this process through ``stepsum.cli.main``, exactly as
the console script would run it. Its stdout and stderr are captured, so the
benchmark's own output stays one JSON line at the end.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

from stepsum import cli
from stepsum.config import RunConfig, load_config
from stepsum.data import parse_document, read_jsonl
from stepsum.metrics import mean_rouge_f1
from stepsum.rotowire import parse_game, plan_from_json, prefilter

from workloads import RoundFiles, Workload, write_jsonl

# table-mode decoding may repeat these record types (the decoder's default)
REPEATABLE_TYPES = frozenset({"TEAM-NAME", "TEAM-CITY"})
# too short to time once, so ``eval`` repeats until this much time is spent
EVAL_MIN_S = 0.4
# the desk preset's document and table limits, which every workload keeps
_DESK = RunConfig()


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Command:
    name: str
    start: float
    end: float
    rc: int
    stdout: str
    ops: int
    failed: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_command(argv: list[str], ops: int) -> Command:
    """Run one stepsum command; count its failed operations.

    A run that exits 1 reported per-line errors, each one failed operation;
    any other nonzero exit fails every operation of the command.

    Before the clock starts, garbage is collected and what survives is
    frozen out of later collections. The console script starts each command
    in a fresh process with a small heap; without this, the collector of
    this long-lived process would scan every earlier command's objects, and
    its pauses made a few 5 ms table ``eval`` passes 4-6x their median.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
    t1 = time.perf_counter()
    errors = sum(1 for line in err.getvalue().splitlines() if line.startswith("error:"))
    if rc == 0:
        failed = 0
    elif rc == 1 and errors:
        failed = min(ops, errors)
    else:
        failed = ops
    return Command(argv[0], t0, t1, rc, out.getvalue(), ops, failed)


class DocClock:
    """Per-document decode spans: scorer construction through search.

    Rebinds only ``cli.ModelStepScorer`` and the two decoders in the ``cli``
    namespace, for the duration of one ``decode`` command.
    """

    DECODERS = ("beam_decode", "greedy_decode_with_repeat_exceptions")

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []
        self._start = 0.0

    @contextlib.contextmanager
    def installed(self):
        originals = {name: getattr(cli, name) for name in ("ModelStepScorer",) + self.DECODERS}
        scorer_cls = originals["ModelStepScorer"]

        def scorer(*args, **kwargs):
            self._start = time.perf_counter()
            return scorer_cls(*args, **kwargs)

        def timed(decoder):
            def run(*args, **kwargs):
                result = decoder(*args, **kwargs)
                self.spans.append((self._start, time.perf_counter()))
                return result
            return run

        cli.ModelStepScorer = scorer
        for name in self.DECODERS:
            setattr(cli, name, timed(originals[name]))
        try:
            yield self
        finally:
            for name, value in originals.items():
                setattr(cli, name, value)


@dataclass
class RoundResult:
    commands: list[Command] = field(default_factory=list)
    valid_loss: str = ""
    doc_spans: list[tuple[float, float]] = field(default_factory=list)
    outputs: dict[str, bytes] = field(default_factory=dict)

    def runs(self, name: str) -> list[Command]:
        return [c for c in self.commands if c.name == name]

    @property
    def command_seconds(self) -> float:
        return sum(c.seconds for c in self.commands)


def _read_rows(path: str) -> list[dict]:
    rows, errors = read_jsonl(path)
    _require(not errors, f"{path}: unreadable lines {errors[:2]}")
    return rows


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_oracle(out_path: str, docs: list) -> None:
    """Each row's score is mean Rouge F1 of its selection, recomputed here."""
    rows = _read_rows(out_path)
    _require(len(rows) == len(docs), f"oracle wrote {len(rows)} rows for {len(docs)} docs")
    for row, doc in zip(rows, docs):
        _require(row["id"] == doc.doc_id, f"oracle row {row['id']} out of order")
        sel = row["selected"]
        _require(len(set(sel)) == len(sel)
                 and all(0 <= i < len(doc.sentences) for i in sel),
                 f"oracle {doc.doc_id}: bad selection {sel}")
        tokens = [t for i in sorted(sel) for t in doc.sentences[i]]
        expected = mean_rouge_f1(tokens, doc.abstract_tokens)
        _require(row["score"] == expected,
                 f"oracle {doc.doc_id}: score {row['score']} != recomputed {expected}")


def check_train(cmd: Command, train_steps: int, out_dir: str) -> str:
    """The final validation loss line, as printed."""
    _require(cmd.rc == 0, f"train exited {cmd.rc}")
    lines = cmd.stdout.splitlines()
    last_step = [ln for ln in lines if ln.startswith(f"step {train_steps}:")]
    _require(len(last_step) == 1, "train did not report its final step")
    _require(any(ln.startswith("best step ") for ln in lines), "train gave no summary")
    _require(os.path.isfile(os.path.join(out_dir, "best", "params.bin")),
             "train wrote no best checkpoint")
    valid = last_step[0].rsplit(" valid ", 1)[1]
    _require(math.isfinite(float(valid)), f"non-finite validation loss {valid}")
    return valid


def check_decode_docs(out_path: str, docs: list, max_units: int,
                      max_steps: int) -> int:
    """Plans obey no-repeat and the step budget; returns the incomplete count."""
    rows = _read_rows(out_path)
    _require(len(rows) == len(docs), f"decode wrote {len(rows)} rows for {len(docs)} docs")
    incomplete = 0
    for row, doc in zip(rows, docs):
        _require(row["id"] == doc.doc_id, f"decode row {row['id']} out of order")
        plan = plan_from_json(row["plan"])
        units = [s.unit for s in plan if s.kind == "unit"]
        limit = min(len(doc.sentences), max_units)
        _require(all(0 <= u < limit for u in units), f"{doc.doc_id}: unit out of range")
        _require(len(set(units)) == len(units), f"{doc.doc_id}: repeated unit")
        _require(len(plan) <= max_steps, f"{doc.doc_id}: plan longer than {max_steps}")
        _require(all(not s.is_break for s in plan), f"{doc.doc_id}: break in document mode")
        _require(row["summary_sentences"] == [doc.sentences[i] for i in sorted(units)],
                 f"{doc.doc_id}: summary does not match the plan")
        _require(math.isfinite(row["log_prob"]) and row["log_prob"] <= 0.0,
                 f"{doc.doc_id}: bad log_prob {row['log_prob']}")
        if row["incomplete"]:
            incomplete += 1
        else:
            _require(plan[-1].is_end or len(plan) == max_steps,
                     f"{doc.doc_id}: complete plan without an end")
    return incomplete


def check_decode_tables(out_path: str, games: list, max_units: int,
                        max_steps: int) -> None:
    """Plans name only surviving records and repeat only repeatable types."""
    rows = _read_rows(out_path)
    _require(len(rows) == len(games), f"decode wrote {len(rows)} rows for {len(games)} games")
    for row, game in zip(rows, games):
        _require(row["id"] == game.game_id, f"decode row {row['id']} out of order")
        plan = plan_from_json(row["plan"])
        _require(len(plan) <= max_steps, f"{game.game_id}: plan longer than {max_steps}")
        known = {(r.entity, r.type) for r in prefilter(game, max_units, reserved=2)}
        seen = set()
        for step in plan:
            if step.kind != "unit":
                continue
            key = (step.record.entity, step.record.type)
            _require(key in known, f"{game.game_id}: unknown record {key}")
            _require(key not in seen or key[1] in REPEATABLE_TYPES,
                     f"{game.game_id}: repeated record {key}")
            seen.add(key)


def check_eval(out_path: str, n: int) -> None:
    with open(out_path, encoding="utf-8") as fh:
        report = json.load(fh)
    _require(report["count"] == n, f"eval counted {report['count']} of {n} inputs")


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------


def _oracle_docs_from_linearized(lin_path: str, games_path: str, out_path: str) -> None:
    """Documents for ``stepsum oracle``: a game's templated records are its
    sentences and its reference summary is the abstract."""
    summaries = {str(g["id"]): g["summary"] for g in _read_rows(games_path)}
    docs = [{"id": row["id"], "sentences": [u.split() for u in row["units"]],
             "abstract": [summaries[row["id"]]]}
            for row in _read_rows(lin_path)]
    write_jsonl(out_path, docs)


def run_round(w: Workload, files: RoundFiles, ckpt: str, out_dir: str, *,
              clock: DocClock | None, eval_min_s: float) -> RoundResult:
    """oracle, train, oracle, decode and eval on one round's inputs, checked.

    ``clock`` (untraced runs only) times each document's decode;
    ``eval_min_s`` repeats ``eval`` until that much time has been spent.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = lambda name: os.path.join(out_dir, name)  # noqa: E731
    res = RoundResult()
    max_steps = load_config(files.config).max_steps

    def record(cmd: Command) -> Command:
        res.commands.append(cmd)
        return cmd

    def oracle_pass(part: int) -> None:
        source, out = files.oracle[part], path(f"oracle-{part}.jsonl")
        oracle_in, oracle_cfg = source, files.config
        if w.task == "rotowire":
            linear = path(f"linear-{part}.jsonl")
            record(run_command(["linearize", "--in", source, "--out", linear], w.oracle_docs))
            oracle_in, oracle_cfg = path(f"oracle-in-{part}.jsonl"), files.oracle_config
            _oracle_docs_from_linearized(linear, source, oracle_in)
        record(run_command(["oracle", "--config", oracle_cfg, "--in", oracle_in,
                            "--out", out], w.oracle_docs))
        check_oracle(out, [parse_document(r) for r in _read_rows(oracle_in)])
        res.outputs[f"oracle-{part}"] = _read_bytes(out)

    if w.task == "cnndm":
        decode_inputs = [parse_document(r) for r in _read_rows(files.decode)]
    else:
        decode_inputs = [parse_game(r) for r in _read_rows(files.decode)]

    # two oracle passes, before train and before decode, spread the oracle's
    # time over the round (it is the layer most sensitive to machine noise)
    oracle_pass(0)
    train_argv = ["train", "--config", files.config, "--train", files.train,
                  "--valid", files.valid, "--out", path("train")]
    if w.task == "rotowire":
        train_argv += ["--train-plans", files.train_plans, "--valid-plans", files.valid_plans]
    train = record(run_command(train_argv, w.train_docs + w.valid_docs))
    res.valid_loss = check_train(train, w.train_steps, path("train"))
    res.outputs["train"] = train.stdout.encode()

    oracle_pass(1)

    decode_argv = ["decode", "--config", files.config, "--ckpt", ckpt, "--in", files.decode,
                   "--out", path("decoded.jsonl")]
    if clock is not None:
        before = len(clock.spans)
        with clock.installed():
            decode = record(run_command(decode_argv, w.decode_docs))
        res.doc_spans = clock.spans[before:]
        _require(len(res.doc_spans) == w.decode_docs, "decode clock missed documents")
    else:
        decode = record(run_command(decode_argv, w.decode_docs))
    _require(decode.rc == 0, f"decode exited {decode.rc}")
    if w.task == "cnndm":
        incomplete = check_decode_docs(path("decoded.jsonl"), decode_inputs,
                                       _DESK.max_doc_sents, max_steps)
        decode.failed = max(decode.failed, incomplete)
        eval_argv = ["eval", "--task", "rouge", "--gen", path("decoded.jsonl"),
                     "--ref", files.decode, "--out", path("eval.json")]
    else:
        check_decode_tables(path("decoded.jsonl"), decode_inputs,
                            _DESK.max_units, max_steps)
        eval_argv = ["eval", "--task", "plan", "--gen", path("decoded.jsonl"),
                     "--ref", files.decode_plans, "--out", path("eval.json")]
    res.outputs["decode"] = _read_bytes(path("decoded.jsonl"))

    spent = 0.0
    while not res.runs("eval") or spent < eval_min_s:
        cmd = record(run_command(eval_argv, w.decode_docs))
        _require(cmd.rc == 0, f"eval exited {cmd.rc}")
        check_eval(path("eval.json"), w.decode_docs)
        spent += cmd.seconds
    res.outputs["eval"] = _read_bytes(path("eval.json"))
    return res

