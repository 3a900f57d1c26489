"""Seeded input generators and run configs for the benchmark workloads.

Everything here is a pure function of the seed and the round index, and
uses only the standard library, so the program under test sees nothing but
the JSONL and config files written from these values.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# CNN/DM-shaped documents: sentence counts over 8-48 and sentence lengths
# over 6-30 tokens, peaked near the 35 x 25 shape of the real corpus.
SENTS_LOW, SENTS_HIGH, SENTS_MODE = 8, 48, 35
TOKENS_LOW, TOKENS_HIGH, TOKENS_MODE = 6, 30, 25
ABSTRACT_SOURCES = 4
FRAGMENT_SHARE = 0.7
VOCAB_SIZE = 3000

_SYLLABLES = [
    "ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu", "na", "pe",
    "qui", "ro", "su", "ta", "ve", "wi", "xo", "yu", "za", "bre", "cla", "dro",
    "fle", "gri", "pla", "sto", "tru", "vin", "mor", "len",
]


@dataclass(frozen=True)
class Workload:
    name: str
    encoder: str
    task: str
    oracle_docs: int    # documents (or games) per oracle pass; two passes a round
    train_docs: int     # documents (or games) per round given to train
    valid_docs: int
    decode_docs: int
    train_steps: int    # validated and checkpointed once, after the last step


# Small rounds of 4-8 s on a 2-core VM, so a 38 s run holds five to eight
# of them and every command is sampled across the whole run. Per round, the
# three train documents take the 1/6, 3/6 and 5/6 quantiles of the size law
# and the one validation document the median (games: of the plan-size law),
# so rounds differ only in content.
WORKLOADS = {
    "docs-hibert": Workload("docs-hibert", "hibert", "cnndm", oracle_docs=4,
                            train_docs=3, valid_docs=1, decode_docs=6,
                            train_steps=3),
    "docs-etc": Workload("docs-etc", "etc", "cnndm", oracle_docs=4,
                         train_docs=3, valid_docs=1, decode_docs=4,
                         train_steps=3),
    "tables-etc": Workload("tables-etc", "etc", "rotowire", oracle_docs=4,
                           train_docs=3, valid_docs=1, decode_docs=4,
                           train_steps=3),
}


def config_text(w: Workload) -> str:
    """INI config for one workload: the desk presets of ``configs/``."""
    lines = ["[run]", f"task = {w.task}", f"encoder = {w.encoder}",
             "preset = desk", "seed = 13", ""]
    if w.task == "rotowire":
        # the values of configs/desk_rotowire_etc.cfg
        lines += ["[model]", "max_plan_len = 24", "summary_budget = 340", ""]
    lines += ["[optimizer]", "batch_size = 8", f"train_steps = {w.train_steps}",
              f"checkpoint_every = {w.train_steps}", ""]
    if w.task == "rotowire":
        lines += ["[decode]", "max_steps = 20", ""]
    else:
        lines += ["[decode]", "beam_size = 3", "max_steps = 4",
                  "no_repeat = true", "trigram_blocking = false", ""]
    return "\n".join(lines)


def write_jsonl(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(f"{seed}/" + "/".join(str(p) for p in parts))


def _stratified(n: int, low: float, high: float, mode: float,
                rng: random.Random) -> list[int]:
    """``n`` values at evenly spaced quantiles of a triangular law, shuffled.

    Every round then has the same spread of document sizes; only the
    contents change with the seed, which keeps per-round work comparable.
    """
    c = (mode - low) / (high - low)
    out = []
    for i in range(n):
        u = (i + 0.5) / n
        if u < c:
            x = low + ((high - low) * (mode - low) * u) ** 0.5
        else:
            x = high - ((high - low) * (high - mode) * (1 - u)) ** 0.5
        out.append(int(round(x)))
    rng.shuffle(out)
    return out


class Lexicon:
    """A pseudo-word vocabulary with Zipf-like token frequencies."""

    def __init__(self, seed: int, size: int = VOCAB_SIZE):
        rng = _rng(seed, "lexicon")
        words: list[str] = []
        seen = set()
        while len(words) < size:
            w = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3)))
            if w not in seen:
                seen.add(w)
                words.append(w)
        self.words = words
        weights = [1.0 / (r + 1) ** 1.1 for r in range(size)]
        total = 0.0
        self.cum = []
        for wt in weights:
            total += wt
            self.cum.append(total)

    def sample(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum, k=k)


def make_documents(seed: int, split: str, rnd: int, n: int,
                   lexicon: Lexicon) -> list[dict]:
    """CNN/DM-shaped documents with abstracts built from source fragments."""
    rng = _rng(seed, "docs", split, rnd)
    counts = _stratified(n, SENTS_LOW, SENTS_HIGH, SENTS_MODE, rng)
    docs = []
    for i, n_sents in enumerate(counts):
        lengths = _stratified(n_sents, TOKENS_LOW, TOKENS_HIGH, TOKENS_MODE, rng)
        sentences = [lexicon.sample(rng, k) for k in lengths]
        # lead-biased fragments (70%) of four source sentences, one noise
        # token each: ~55 tokens, and every source sentence raises the mean
        # Rouge F1, so the greedy oracle runs its full four rounds per document
        picks = sorted(rng.sample(range(min(n_sents, 12)), ABSTRACT_SOURCES))
        abstract: list[list[str]] = []
        for si in picks:
            sent = sentences[si]
            frag_len = max(3, round(FRAGMENT_SHARE * len(sent)))
            start = rng.randint(0, len(sent) - frag_len)
            abstract.append(list(sent[start: start + frag_len]) + lexicon.sample(rng, 1))
        docs.append({"id": f"{split}-{rnd}-{i:03d}", "sentences": sentences,
                     "abstract": abstract})
    return docs


# ---------------------------------------------------------------------------
# box-score games with reference plans
# ---------------------------------------------------------------------------

TEAM_STATS = ["TEAM-PTS", "TEAM-REB", "TEAM-AST", "TEAM-WINS", "TEAM-LOSSES"]
PLAYER_STATS = ["PLAYER-PTS", "PLAYER-REB", "PLAYER-AST", "PLAYER-MIN",
                "PLAYER-FGM", "PLAYER-STL"]
# records that survive prefilter, reserved pseudo-units excluded
# (max_units 46 minus the break and stop markers)
RECORD_BUDGET = 44
# five starters and one bench player fill the budget exactly, so every game
# has the same table size; plan sizes follow a stratified law per split
STARTERS = 5
PLAN_RECORDS_LOW, PLAN_RECORDS_HIGH, PLAN_RECORDS_MODE = 8, 14, 11
_FILLER_WORDS = ["the", "and", "with", "after", "scored", "led", "night",
                 "game", "added", "while", "points", "team"]
WEEKDAYS = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
            "Saturday", "Sunday"]


def _name(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(2)).capitalize()


def make_game(seed: int, split: str, rnd: int, i: int,
              plan_records: int) -> tuple[dict, list]:
    """One game whose records fit the unit budget, plus its reference plan
    of ``plan_records`` records.

    Starters carry numeric stats; bench players carry N/A stats, which
    prefilter drops, so each costs only its two name records and its team
    record. The record count is kept within ``RECORD_BUDGET`` by
    construction, so prefilter never needs to drop zero-valued records.
    """
    rng = _rng(seed, "game", split, rnd, i)
    gid = f"{split}-{rnd}-{i:03d}"
    team_stats = rng.sample(TEAM_STATS, 2)
    teams = []
    keys = [f"{_name(rng)}s"]
    while len(keys) < 2:  # the two teams need distinct keys, or records collide
        key = f"{_name(rng)}s"
        if key != keys[0]:
            keys.append(key)
    for key in keys:
        teams.append({"key": key, "name": key, "city": _name(rng),
                      "stats": {t: str(rng.randint(5, 120)) for t in team_stats}})
    player_stats = rng.sample(PLAYER_STATS, 3)
    players = []
    for p in range(STARTERS):
        players.append({"key": f"P{p}{_name(rng)}", "first_name": _name(rng),
                        "second_name": _name(rng),
                        "team": "home" if p % 2 == 0 else "visitor",
                        "stats": {t: str(rng.randint(1, 40)) for t in player_stats}})
    players.append({"key": f"B0{_name(rng)}", "first_name": _name(rng),
                    "second_name": _name(rng), "team": "visitor",
                    "stats": {t: "N/A" for t in player_stats}})
    # the date record, each team's name, city and stats, each starter's
    # names, team and stats, and the bench player's names and team
    records = (1 + sum(3 + len(t["stats"]) for t in teams)
               + STARTERS * (3 + len(player_stats)) + 3)
    if records > RECORD_BUDGET:
        raise ValueError(f"{gid}: {records} records exceed the budget of {RECORD_BUDGET}")
    game = {"id": gid,
            "date": {"year": 2016, "month": rng.randint(1, 12),
                     "day": rng.randint(1, 28), "weekday": rng.choice(WEEKDAYS)},
            "home": {k: teams[0][k] for k in ("key", "name", "city", "stats")},
            "visitor": {k: teams[1][k] for k in ("key", "name", "city", "stats")},
            "players": players}

    # plan: 3-5 sentences of 2-6 records with breaks, at most 19 steps plus
    # the end marker so the 20-step decoder can reproduce it
    pool = []
    for t in teams:
        pool += [(t["key"], "TEAM-NAME"), (t["key"], "TEAM-CITY")]
        pool += [(t["key"], s) for s in t["stats"]]
    for p in players:
        if p["key"].startswith("P"):
            pool += [(p["key"], "PLAYER-FIRST_NAME"), (p["key"], "PLAYER-SECOND_NAME")]
            pool += [(p["key"], s) for s in p["stats"]]
    counts = [k for k in range(3, 6)
              if 2 * k <= plan_records <= 6 * k and plan_records + k - 1 <= 19]
    sizes = [2] * rng.choice(counts)
    for _ in range(plan_records - sum(sizes)):
        sizes[rng.choice([j for j, size in enumerate(sizes) if size < 6])] += 1
    chosen = rng.sample(pool, plan_records)
    plan: list = []
    k = 0
    for si, size in enumerate(sizes):
        if si:
            plan.append("EOS")
        for entity, rtype in chosen[k: k + size]:
            plan.append({"entity": entity, "type": rtype})
        k += size
    plan.append("EOT")
    # a reference summary that mentions the planned records, for the oracle
    # over linearized games
    values = {(t["key"], s): v for t in teams for s, v in t["stats"].items()}
    values.update({(p["key"], s): v for p in players for s, v in p["stats"].items()})
    summary: list[str] = []
    for entity, rtype in chosen:
        summary += [entity.lower(), rtype.split("-", 1)[1].lower()]
        if (entity, rtype) in values:
            summary.append(values[(entity, rtype)])
        summary += rng.sample(_FILLER_WORDS, 2)
    game["summary"] = summary
    return game, plan


def make_games(seed: int, split: str, rnd: int, n: int) -> tuple[list[dict], list[dict]]:
    games, plans = [], []
    rng = _rng(seed, "plans", split, rnd)
    sizes = _stratified(n, PLAN_RECORDS_LOW, PLAN_RECORDS_HIGH, PLAN_RECORDS_MODE, rng)
    for i, plan_records in enumerate(sizes):
        game, plan = make_game(seed, split, rnd, i, plan_records)
        games.append(game)
        plans.append({"id": game["id"], "plan": plan})
    return games, plans


# ---------------------------------------------------------------------------
# per-round input files
# ---------------------------------------------------------------------------


@dataclass
class RoundFiles:
    config: str
    oracle: list[str]
    train: str
    valid: str
    decode: str
    oracle_config: str
    train_plans: str | None = None
    valid_plans: str | None = None
    decode_plans: str | None = None


def write_round(w: Workload, seed: int, rnd: int, directory: str,
                lexicon: Lexicon | None) -> RoundFiles:
    os.makedirs(directory, exist_ok=True)
    path = lambda name: os.path.join(directory, name)  # noqa: E731
    with open(path("run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(config_text(w))
    files = RoundFiles(path("run.cfg"), [path("oracle-a.jsonl"), path("oracle-b.jsonl")],
                       path("train.jsonl"), path("valid.jsonl"), path("decode.jsonl"),
                       path("run.cfg"))
    sizes = {"oracle-a": w.oracle_docs, "oracle-b": w.oracle_docs, "train": w.train_docs,
             "valid": w.valid_docs, "decode": w.decode_docs}
    if w.task == "cnndm":
        for split, n in sizes.items():
            write_jsonl(path(f"{split}.jsonl"),
                        make_documents(seed, split, rnd, n, lexicon))
        return files
    # the oracle over linearized games keeps the desk selection cap of 4
    files.oracle_config = path("oracle.cfg")
    with open(files.oracle_config, "w", encoding="utf-8") as fh:
        fh.write("[run]\ntask = rotowire\nencoder = etc\npreset = desk\nseed = 13\n")
    for split, n in sizes.items():
        games, plans = make_games(seed, split, rnd, n)
        write_jsonl(path(f"{split}.jsonl"), games)
        write_jsonl(path(f"{split}_plans.jsonl"), plans)
    files.train_plans = path("train_plans.jsonl")
    files.valid_plans = path("valid_plans.jsonl")
    files.decode_plans = path("decode_plans.jsonl")
    return files
