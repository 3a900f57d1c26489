"""Dataset ingestion: vocabulary and per-task unit preparation.

Documents arrive as JSONL with pre-tokenized sentences; games use the
box-score schema from the rotowire module. Either way a document becomes a
``PreparedDoc``: an ordered unit list (pseudo-units for the stop marker and,
in table mode, the sentence break first, then the real units), the matching
candidate steps, and everything the two encoders need to score a step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import rotowire
from .plan import BREAK_STEP, END_STEP, PlanStep, RecordRef, fields, sentences, string, unit_step

PAD = "<pad>"
UNK = "<unk>"
EOT = rotowire.EOT_TOKEN
EOS = rotowire.EOS_TOKEN
BEG = rotowire.BEG_TOKEN
CLS = "[CLS]"
SEP = "[SEP]"

SPECIAL_TOKENS = [PAD, UNK, EOT, EOS, BEG, CLS, SEP]

class Vocab:
    """Corpus-built token table with a reserved padding/unknown prefix."""

    def __init__(self, tokens: Sequence[str]):
        self.id_to_token = list(SPECIAL_TOKENS) + [
            t for t in tokens if t not in SPECIAL_TOKENS
        ]
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("vocabulary contains duplicates")

    @classmethod
    def from_corpus(cls, sentences: Iterable[Sequence[str]]) -> "Vocab":
        counts: dict[str, int] = {}
        for sent in sentences:
            for tok in sent:
                counts[tok] = counts.get(tok, 0) + 1
        ordered = sorted(counts, key=lambda t: (-counts[t], t))
        return cls(ordered)

    @classmethod
    def from_token_list(cls, id_to_token: Sequence[str]) -> "Vocab":
        """Rebuild from a persisted full token list (e.g. a checkpoint)."""
        if list(id_to_token[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise ValueError("token list does not start with the reserved prefix")
        return cls(list(id_to_token[len(SPECIAL_TOKENS):]))

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        unk = self.token_to_id[UNK]
        return [self.token_to_id.get(t, unk) for t in tokens]

    def __getitem__(self, token: str) -> int:
        return self.token_to_id[token]


@dataclass
class Document:
    doc_id: str
    sentences: list[list[str]]
    abstract: list[list[str]] = field(default_factory=list)

    @property
    def abstract_tokens(self) -> list[str]:
        return [t for sent in self.abstract for t in sent]


# a documents-file row
DOCUMENT = fields({"id": string, "sentences": sentences, "abstract?": sentences})


def parse_document(obj: dict) -> Document:
    row = DOCUMENT(obj)
    if not all(row["sentences"]):
        raise ValueError("documents may not contain empty sentences")
    return Document(row["id"], row["sentences"], row.get("abstract", []))


def read_jsonl(path: str, *, numbered: bool = False) -> tuple[list, list[tuple[int, str]]]:
    """Parse a JSONL file of objects; any other line, or one that is not UTF-8,
    is collected as an error, not fatal. Lines end as in text mode (``\\n``,
    ``\\r\\n`` or ``\\r``), and blank ones are skipped. With ``numbered``,
    each row comes as ``(line number, row)``."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    rows: list = []
    errors: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            row = json.loads(line)
            if not isinstance(row, dict):
                raise ValueError(f"expected a JSON object, got {type(row).__name__}")
        except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
            errors.append((lineno, str(e)))
            continue
        rows.append((lineno, row) if numbered else row)
    return rows, errors


def write_jsonl(path: str, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# prepared documents
# ---------------------------------------------------------------------------


@dataclass
class PreparedDoc:
    """One document in model terms.

    ``units`` lists token-id sequences, candidate pseudo-units first:
    document mode has the stop marker; table mode has the break marker then
    the stop marker. ``candidates`` aligns one plan step with each candidate
    logit slot (pseudo-units first, then real units).
    """

    doc_id: str
    units: list[list[int]]
    unit_tokens: list[list[str]]
    candidates: list[PlanStep]
    special_count: int
    break_slot: int | None
    records: list[RecordRef] = field(default_factory=list)

    @property
    def n_real_units(self) -> int:
        return len(self.units) - self.special_count


def prepare_cnndm(doc: Document, vocab: Vocab, *, max_doc_sents: int,
                  max_sent_len: int) -> PreparedDoc:
    sentences = [s[:max_sent_len] for s in doc.sentences[:max_doc_sents]]
    unit_tokens = [[EOT]] + sentences
    units = [vocab.encode(u) for u in unit_tokens]
    candidates = [END_STEP] + [unit_step(i) for i in range(len(sentences))]
    return PreparedDoc(doc.doc_id, units, unit_tokens, candidates,
                       special_count=1, break_slot=None)


def prepare_rotowire(game: rotowire.RotowireGame, vocab: Vocab, *, max_units: int,
                     max_sent_len: int) -> PreparedDoc:
    refs, rendered = rotowire.templated_units(game, max_units, reserved=2)
    rendered = [u[:max_sent_len] for u in rendered]
    unit_tokens = [[EOS], [EOT]] + rendered
    units = [vocab.encode(u) for u in unit_tokens]
    candidates = [BREAK_STEP, END_STEP] + [
        PlanStep("unit", unit=i, record=ref) for i, ref in enumerate(refs)
    ]
    return PreparedDoc(game.game_id, units, unit_tokens, candidates,
                       special_count=2, break_slot=0, records=list(refs))


def rotowire_corpus_sentences(games: Sequence[rotowire.RotowireGame],
                              max_units: int) -> list[list[str]]:
    """All templated unit strings of a game corpus, for vocabulary building."""
    out: list[list[str]] = []
    for game in games:
        _, rendered = rotowire.templated_units(game, max_units, reserved=2)
        out.extend(rendered)
    return out


# ---------------------------------------------------------------------------
# stepwise examples
# ---------------------------------------------------------------------------


@dataclass
class StepExample:
    doc: PreparedDoc
    prefix: tuple[PlanStep, ...]
    target: int  # candidate index


def candidate_index(prepared: PreparedDoc, step: PlanStep) -> int:
    """Map a gold step onto its candidate slot."""
    if step.is_end:
        return prepared.special_count - 1
    if step.is_break:
        if prepared.break_slot is None:
            raise ValueError("break step in a task without sentence breaks")
        return prepared.break_slot
    if not 0 <= step.unit < prepared.n_real_units:
        raise ValueError(f"plan unit {step.unit} outside the {prepared.n_real_units} "
                         f"units of {prepared.doc_id}")
    return prepared.special_count + step.unit


def align_plan_to_units(plan: Sequence[PlanStep],
                        prepared: PreparedDoc) -> list[PlanStep]:
    """Re-index record plan steps against the prepared unit list.

    Steps whose record was prefiltered away are dropped (the miss is the
    caller's to report via ``missing_plan_records``).
    """
    index_of = {(r.entity, r.type): i for i, r in enumerate(prepared.records)}
    out = []
    for step in plan:
        if step.kind != "unit":
            out.append(step)
            continue
        if step.record is None:
            out.append(step)
            continue
        idx = index_of.get((step.record.entity, step.record.type))
        if idx is None:
            continue
        out.append(PlanStep("unit", unit=idx, record=prepared.records[idx]))
    return out


def examples_from_plan(prepared: PreparedDoc,
                       plan: Sequence[PlanStep]) -> list[StepExample]:
    steps = list(plan)
    if not steps or not steps[-1].is_end:
        steps.append(END_STEP)
    out = []
    for k, step in enumerate(steps):
        out.append(StepExample(prepared, tuple(steps[:k]),
                               candidate_index(prepared, step)))
    return out
