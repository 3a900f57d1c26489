"""Box-score ingestion: parsing, value ranks, prefiltering, templated units.

A game is two team lines plus per-player stat lines. Every cell becomes a
record (entity, type, value); records are rendered as short natural-language
sentences through a fixed template table, with numeric values carrying an
ordinal rank-within-type suffix ("which is 2nd best", kept even where high
is bad). Plans over these records linearize to token sequences with begin,
sentence-break and end markers.
"""

from __future__ import annotations

import datetime
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .plan import (BREAK_STEP, END_STEP, PlanStep, RecordRef, RowError, fields, integer, list_of,
                   map_of, string, unit_step, validate_plan)

BEG_TOKEN = "<BEG>"
EOS_TOKEN = "<EOS>"
EOT_TOKEN = "<EOT>"

MATCH_ENTITY = "match"
MATCH_DATE = "MATCH-DATE"
TEAM_NAME = "TEAM-NAME"
TEAM_CITY = "TEAM-CITY"
TEAM_HOME_AWAY = "TEAM-HOME_AWAY"
PLAYER_FIRST_NAME = "PLAYER-FIRST_NAME"
PLAYER_SECOND_NAME = "PLAYER-SECOND_NAME"
PLAYER_TEAM = "PLAYER-TEAM"

# template table; T/P/V are word-level placeholders filled at render time
TEAM_TEMPLATES: dict[str, str] = {
    TEAM_NAME: "team name of T is V",
    TEAM_CITY: "team city of T is V",
    "TEAM-PTS_QTR1": "team 1st quarter points of T is V",
    "TEAM-PTS_QTR2": "team 2nd quarter points of T is V",
    "TEAM-PTS_QTR3": "team 3rd quarter points of T is V",
    "TEAM-PTS_QTR4": "team 4th quarter points of T is V",
    "TEAM-FT_PCT": "team free throw percentage of T is V",
    "TEAM-PTS": "team points scored of T is V",
    "TEAM-AST": "team assists of T is V",
    "TEAM-LOSSES": "team losses of T is V",
    "TEAM-WINS": "team wins of T is V",
    "TEAM-REB": "team rebounds of T is V",
    "TEAM-TOV": "team turnovers of T is V",
    "TEAM-FG3_PCT": "team 3-point field goal percentage of T is V",
    "TEAM-FG_PCT": "team field goal percentage of T is V",
}

PLAYER_TEMPLATES: dict[str, str] = {
    PLAYER_FIRST_NAME: "player first name of P is V",
    PLAYER_SECOND_NAME: "player second name of P is V",
    "PLAYER-PTS": "player points scored of P is V",
    "PLAYER-FGM": "player field goals made of P is V",
    "PLAYER-FGA": "player field goals attempted of P is V",
    "PLAYER-MIN": "player minutes played of P is V",
    "PLAYER-FG3M": "player 3-point field goals made of P is V",
    "PLAYER-FG3A": "player 3-point field goals attempted of P is V",
    "PLAYER-STL": "player steals of P is V",
    "PLAYER-FTM": "player free throws made of P is V",
    "PLAYER-FTA": "player free throws attempted of P is V",
    "PLAYER-BLK": "player blocks of P is V",
    "PLAYER-AST": "player assists of P is V",
    "PLAYER-TO": "player turnovers of P is V",
    "PLAYER-PF": "player fouls of P is V",
    "PLAYER-REB": "player rebounds of P is V",
    "PLAYER-START_POSITION": "player starting position of P is V",
    "PLAYER-OREB": "player offensive rebounds of P is V",
    "PLAYER-DREB": "player defensive rebounds of P is V",
    "PLAYER-FG_PCT": "player field goals percentage of P is V",
    "PLAYER-FG3_PCT": "player 3-point field goals percentage of P is V",
    "PLAYER-FT_PCT": "player free throws percentage of P is V",
}

# canonical within-entity type enumeration order for unit construction
TEAM_TYPE_ORDER = list(TEAM_TEMPLATES) + [TEAM_HOME_AWAY]
PLAYER_TYPE_ORDER = list(PLAYER_TEMPLATES) + [PLAYER_TEAM]

WEEKDAYS = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
            "Saturday", "Sunday"]
MONTHS = ["January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December"]


class GameFormatError(ValueError):
    pass


@dataclass
class TeamEntry:
    key: str
    name: str
    city: str
    home: bool
    stats: dict[str, str] = field(default_factory=dict)


@dataclass
class PlayerEntry:
    key: str
    first_name: str
    second_name: str
    team_key: str
    stats: dict[str, str] = field(default_factory=dict)


@dataclass
class RotowireGame:
    game_id: str
    date: tuple[int, int, int, int]  # year, month, day, weekday (Monday = 0)
    teams: list[TeamEntry]
    players: list[PlayerEntry]
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class RankedRecord:
    ref: RecordRef
    rank: int | None  # 1 = largest value within the type; None for non-numeric


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_DATE_RE = re.compile(
    r"^(?P<weekday>[A-Za-z]+),\s+(?P<day>\d+)(?:st|nd|rd|th)?\s+"
    r"(?P<month>[A-Za-z]+)\s+(?P<year>\d{4})$"
)


def _date(value, path: tuple) -> tuple[int, int, int, int]:
    """(year, month, day, weekday): an object, or a string like "Saturday, 22nd October 2018".
    The day must be on the calendar; the weekday is read as given."""
    if type(value) is not str:
        d = _DATE_OBJECT(value, path)
        if d["weekday"] not in WEEKDAYS:
            raise RowError(path + ("weekday",), f"one of {', '.join(WEEKDAYS)}")
        year, month, day, weekday = d["year"], d["month"], d["day"], d["weekday"]
    else:
        m = _DATE_RE.match(value.strip())
        weekday, month = (m["weekday"].capitalize(), m["month"].capitalize()) if m else ("", "")
        if weekday not in WEEKDAYS or month not in MONTHS:
            raise RowError(path, 'an object or a string like "Saturday, 22nd October 2018"')
        year, month, day = int(m["year"]), MONTHS.index(month) + 1, int(m["day"])
    try:
        datetime.date(year, month, day)
    except (ValueError, OverflowError) as e:
        raise RowError(path, f"a date on the calendar ({e})") from None
    return year, month, day, WEEKDAYS.index(weekday)


_DATE_OBJECT = fields({"year": integer, "month": integer, "day": integer, "weekday": string})
_STATS = map_of(string)
_TEAM = fields({"key": string, "name": string, "city": string, "stats?": _STATS})
_PLAYER = fields({"key": string, "first_name": string, "second_name": string,
                  "team": string, "stats?": _STATS})
# a games-file row
GAME = fields({"id": string, "date": _date, "home": _TEAM, "visitor": _TEAM,
               "players?": list_of(_PLAYER)})


def _known_stats(entry: dict, templates: dict[str, str], path: str,
                 warnings: list[str]) -> dict[str, str]:
    """The stats whose entry type has a template; no record could be rendered
    from another, so it is dropped with a warning."""
    stats = entry.get("stats", {})
    warnings += [f"{path}.stats: dropped unknown entry type {k}" for k in stats
                 if k not in templates]
    return {k: v for k, v in stats.items() if k in templates}


def parse_game(raw: dict) -> RotowireGame:
    """Read one game through ``GAME``; unknown entry types are dropped with a warning."""
    try:
        row = GAME(raw)
    except RowError as e:
        raise GameFormatError(*e.args) from None
    home, visitor = row["home"], row["visitor"]
    if visitor["key"] == home["key"]:
        # the teams' records and players would share one entity
        raise GameFormatError(f"visitor.key: {visitor['key']!r} is also the home team's key")
    warnings: list[str] = []
    teams = [TeamEntry(t["key"], t["name"], t["city"], t is home,
                       _known_stats(t, TEAM_TEMPLATES, side, warnings))
             for side, t in (("home", home), ("visitor", visitor))]
    # a player names its team by side, or by key
    team_key = {home["key"]: home["key"], visitor["key"]: visitor["key"],
                "home": home["key"], "visitor": visitor["key"], "vis": visitor["key"]}
    players = []
    for i, p in enumerate(row.get("players", [])):
        if p["team"] not in team_key:
            raise GameFormatError(f"players[{i}].team: {p['team']!r} names no team in this game")
        players.append(PlayerEntry(p["key"], p["first_name"], p["second_name"],
                                   team_key[p["team"]],
                                   _known_stats(p, PLAYER_TEMPLATES, f"players[{i}]", warnings)))
    if not players:
        warnings.append("players: game has no player lines")
    return RotowireGame(row["id"], row["date"], teams, players, warnings)


# ---------------------------------------------------------------------------
# records, ranks, prefiltering
# ---------------------------------------------------------------------------


def game_records(game: RotowireGame) -> list[RecordRef]:
    """All records in canonical order: date, team blocks, player blocks."""
    y, m, d, _wd = game.date
    out = [RecordRef(MATCH_ENTITY, MATCH_DATE, f"{y:04d}-{m:02d}-{d:02d}")]
    for team in game.teams:
        out.append(RecordRef(team.key, TEAM_NAME, team.name))
        out.append(RecordRef(team.key, TEAM_CITY, team.city))
        for t in TEAM_TYPE_ORDER:
            if t in (TEAM_NAME, TEAM_CITY):
                continue
            if t == TEAM_HOME_AWAY:
                out.append(RecordRef(team.key, t, "home" if team.home else "away"))
            elif t in team.stats:
                out.append(RecordRef(team.key, t, team.stats[t]))
    for player in game.players:
        out.append(RecordRef(player.key, PLAYER_FIRST_NAME, player.first_name))
        out.append(RecordRef(player.key, PLAYER_SECOND_NAME, player.second_name))
        for t in PLAYER_TYPE_ORDER:
            if t in (PLAYER_FIRST_NAME, PLAYER_SECOND_NAME):
                continue
            if t == PLAYER_TEAM:
                out.append(RecordRef(player.key, t, player.team_key))
            elif t in player.stats:
                out.append(RecordRef(player.key, t, player.stats[t]))
    return out


def _numeric(value: str) -> float | None:
    try:
        return float(value)
    except ValueError:
        return None


def rank_records(game: RotowireGame) -> list[RankedRecord]:
    """Competition ranks (1, 1, 3) per entry type, largest value first."""
    records = game_records(game)
    by_type: dict[str, list[float]] = {}
    for rec in records:
        v = _numeric(rec.value)
        if v is not None:
            by_type.setdefault(rec.type, []).append(v)
    ranked = []
    for rec in records:
        v = _numeric(rec.value)
        if v is None:
            ranked.append(RankedRecord(rec, None))
        else:
            greater = sum(1 for other in by_type[rec.type] if other > v)
            ranked.append(RankedRecord(rec, greater + 1))
    return ranked


def prefilter(game: RotowireGame, max_units: int, reserved: int = 0) -> list[RecordRef]:
    """Fit the game's records into a unit budget.

    All player records valued N/A are dropped unconditionally; zero-valued
    player records are then dropped from the back of the canonical order as
    needed. Team, date and (implicitly) reserved special units never drop.
    """
    budget = max_units - reserved
    records = [r for r in game_records(game)
               if not (_is_player_type(r.type) and r.value == "N/A")]
    if len(records) <= budget:
        return records
    zero_positions = [i for i, r in enumerate(records)
                      if _is_player_type(r.type) and r.value == "0"]
    need = len(records) - budget
    if need > len(zero_positions):
        raise GameFormatError(
            f"game {game.game_id or '?'} still has {len(records) - len(zero_positions)}"
            f" records after dropping all droppable entries; budget is {budget}"
        )
    drop = set(zero_positions[len(zero_positions) - need:])
    return [r for i, r in enumerate(records) if i not in drop]


def _is_player_type(t: str) -> bool:
    return t.startswith("PLAYER-")


def missing_plan_records(units: Sequence[RecordRef],
                         plan: Sequence[PlanStep]) -> list[RecordRef]:
    """Plan records that prefiltering removed (reported, never silently fixed)."""
    have = {(r.entity, r.type) for r in units}
    out = []
    for step in plan:
        if step.kind == "unit" and step.record is not None:
            key = (step.record.entity, step.record.type)
            if key not in have:
                out.append(step.record)
    return out


# ---------------------------------------------------------------------------
# templating
# ---------------------------------------------------------------------------


def _ordinal(n: int) -> str:
    if 10 <= n % 100 <= 20:
        return f"{n}th"
    return f"{n}{({1: 'st', 2: 'nd', 3: 'rd'}.get(n % 10, 'th'))}"


def templated_sentence(record: RankedRecord, game: RotowireGame) -> list[str]:
    """Render one record as a token list via the template table.

    Numeric records get the ordinal rank suffix. The weekday placeholder
    encodes Monday as 0 through Sunday as 6.
    """
    ref = record.ref
    t = ref.type
    if t == MATCH_DATE:
        y, m, d, wd = game.date
        words = ["match", "date", "of", "match", "is", "year:", str(y),
                 "month:", str(m), "day:", str(d), "day_of_week:", str(wd)]
    elif t == TEAM_HOME_AWAY:
        words = [ref.entity, "is", ref.value, "team", "of", "match"]
    elif t == PLAYER_TEAM:
        words = [ref.entity, "is", "player", "of", ref.value]
    elif t in TEAM_TEMPLATES or t in PLAYER_TEMPLATES:
        template = TEAM_TEMPLATES.get(t) or PLAYER_TEMPLATES[t]
        words = [
            ref.entity if w in ("T", "P") else (ref.value if w == "V" else w)
            for w in template.split()
        ]
    else:
        raise GameFormatError(f"no template for entry type {t}")
    if record.rank is not None:
        words += ["which", "is", _ordinal(record.rank), "best"]
    return words


def templated_units(game: RotowireGame, max_units: int,
                    reserved: int = 0) -> tuple[list[RecordRef], list[list[str]]]:
    """Prefilter then render every surviving record."""
    refs = prefilter(game, max_units, reserved)
    rank_of = {(r.ref.entity, r.ref.type): r.rank for r in rank_records(game)}
    units = [templated_sentence(RankedRecord(r, rank_of[(r.entity, r.type)]), game)
             for r in refs]
    return refs, units


# ---------------------------------------------------------------------------
# plan linearization and files
# ---------------------------------------------------------------------------


def record_token(ref: RecordRef) -> str:
    return f"{ref.entity}|{ref.type}"


def linearize_plan(steps: Sequence[PlanStep]) -> list[str]:
    """Begin marker, record tokens in order, break markers, end marker."""
    validate_plan(list(steps))
    out = [BEG_TOKEN]
    for step in steps:
        if step.is_end:
            break
        if step.is_break:
            out.append(EOS_TOKEN)
        elif step.record is None:
            raise ValueError("cannot linearize a unit step without a record")
        else:
            out.append(record_token(step.record))
    out.append(EOT_TOKEN)
    return out


def plan_to_json(steps: Sequence[PlanStep]) -> list:
    out: list = []
    for step in steps:
        if step.is_end:
            out.append("EOT")
        elif step.is_break:
            out.append("EOS")
        elif step.record is not None:
            out.append({"entity": step.record.entity, "type": step.record.type})
        else:
            out.append({"unit": step.unit})
    return out


def _plan_element(value, path: tuple) -> PlanStep | RecordRef:
    """"EOT", "EOS", a record ``{"entity", "type"}`` or a unit ``{"unit"}``."""
    if type(value) is dict and ("entity" in value or "type" in value):
        return RecordRef(**_RECORD(value, path))
    if type(value) is dict:
        return unit_step(_UNIT(value, path)["unit"])
    if value in ("EOT", "EOS"):
        return END_STEP if value == "EOT" else BREAK_STEP
    raise RowError(path, '"EOT", "EOS" or an object')


_RECORD = fields({"entity": string, "type": string})
_UNIT = fields({"unit": integer})
_PLAN = list_of(_plan_element)


def plan_from_json(items: list, path: tuple = ("plan",)) -> list[PlanStep]:
    """A plan's steps; a record's unit index is its place among the plan's units."""
    steps: list[PlanStep] = []
    units = 0
    for step in _PLAN(items, path):
        if isinstance(step, RecordRef):
            step = unit_step(units, step)
        units += step.kind == "unit"
        steps.append(step)
    validate_plan(steps)
    return steps


def plan_records(steps: Sequence[PlanStep]) -> list[RecordRef]:
    return [s.record for s in steps if s.kind == "unit" and s.record is not None]


@dataclass
class PlanStats:
    plans: int
    mean_entries: float
    mean_sentences: float
    length_histogram: Counter


def plan_stats(plans: Sequence[Sequence[PlanStep]]) -> PlanStats:
    """Mean entries and sentences per plan, plus an entries-length histogram."""
    hist: Counter = Counter()
    entries_total = 0
    sentences_total = 0
    for steps in plans:
        entries = sum(1 for s in steps if s.kind == "unit")
        breaks = sum(1 for s in steps if s.is_break)
        trailing = 0
        seen_entry_after_break = False
        for s in steps:
            if s.kind == "unit":
                seen_entry_after_break = True
            elif s.is_break:
                seen_entry_after_break = False
        if seen_entry_after_break:
            trailing = 1
        hist[entries] += 1
        entries_total += entries
        sentences_total += breaks + trailing
    n = max(len(plans), 1)
    return PlanStats(len(plans), entries_total / n, sentences_total / n, hist)
