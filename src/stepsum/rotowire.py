"""Box-score ingestion: parsing, value ranks, prefiltering, templated units.

A game is two team lines plus per-player stat lines. Every cell becomes a
record (entity, type, value); records are rendered as short natural-language
sentences through a fixed template table, with numeric values carrying an
ordinal rank-within-type suffix ("which is 2nd best", kept even where high
is bad). Plans over these records linearize to token sequences with begin,
sentence-break and end markers.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .plan import BREAK_STEP, END_STEP, PlanStep, RecordRef, unit_step, validate_plan

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


def _parse_date(raw, path: str) -> tuple[int, int, int, int]:
    if isinstance(raw, dict):
        try:
            weekday = raw["weekday"]
            wd = WEEKDAYS.index(weekday) if isinstance(weekday, str) else int(weekday)
            return int(raw["year"]), int(raw["month"]), int(raw["day"]), wd
        except (KeyError, ValueError) as e:
            raise GameFormatError(f"{path}: bad date object ({e})") from None
    if isinstance(raw, str):
        m = _DATE_RE.match(raw.strip())
        if not m:
            raise GameFormatError(f"{path}: unparseable date string {raw!r}")
        try:
            wd = WEEKDAYS.index(m.group("weekday").capitalize())
            month = MONTHS.index(m.group("month").capitalize()) + 1
        except ValueError:
            raise GameFormatError(f"{path}: unknown weekday or month in {raw!r}") from None
        return int(m.group("year")), month, int(m.group("day")), wd
    raise GameFormatError(f"{path}: date must be an object or string")


def _known_stats(raw, templates: dict[str, str], path: str,
                 warnings: list[str]) -> dict[str, str]:
    """The stats whose entry type has a template; any other key is dropped,
    with a warning, since no record could be rendered from it."""
    stats = {}
    for k, v in dict(raw).items():
        if k in templates:
            stats[str(k)] = str(v)
        else:
            warnings.append(f"{path}.stats: dropped unknown entry type {k}")
    return stats


def _parse_team(raw, path: str, home: bool, warnings: list[str]) -> TeamEntry:
    if not isinstance(raw, dict):
        raise GameFormatError(f"{path}: missing team line")
    for fld in ("key", "name", "city"):
        if fld not in raw:
            raise GameFormatError(f"{path}.{fld}: missing")
    stats = _known_stats(raw.get("stats", {}), TEAM_TEMPLATES, path, warnings)
    return TeamEntry(str(raw["key"]), str(raw["name"]), str(raw["city"]), home, stats)


def parse_game(raw: dict) -> RotowireGame:
    """Parse one raw game object; unknown entry types are dropped with a warning."""
    if not isinstance(raw, dict):
        raise GameFormatError("game must be an object")
    warnings: list[str] = []
    if "home" not in raw:
        raise GameFormatError("home: missing team line")
    if "visitor" not in raw:
        raise GameFormatError("visitor: missing team line")
    teams = [
        _parse_team(raw["home"], "home", True, warnings),
        _parse_team(raw["visitor"], "visitor", False, warnings),
    ]
    if teams[1].key == teams[0].key:
        # the teams' records and players would share one entity
        raise GameFormatError(f"visitor.key: {teams[1].key!r} is also the home team's key")
    players = []
    for i, p in enumerate(raw.get("players", [])):
        path = f"players[{i}]"
        for fld in ("key", "first_name", "second_name", "team"):
            if fld not in p:
                raise GameFormatError(f"{path}.{fld}: missing")
        team = p["team"]
        if team == "home":
            team_key = teams[0].key
        elif team in ("visitor", "vis"):
            team_key = teams[1].key
        elif team in (teams[0].key, teams[1].key):
            team_key = team
        else:
            raise GameFormatError(f"{path}.team: {team!r} names no team in this game")
        stats = _known_stats(p.get("stats", {}), PLAYER_TEMPLATES, path, warnings)
        players.append(PlayerEntry(str(p["key"]), str(p["first_name"]),
                                   str(p["second_name"]), team_key, stats))
    if not players:
        warnings.append("players: game has no player lines")
    return RotowireGame(
        game_id=str(raw.get("id", "")),
        date=_parse_date(raw.get("date", {"year": 2016, "month": 1, "day": 1,
                                          "weekday": 4}), "date"),
        teams=teams,
        players=players,
        warnings=warnings,
    )


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


def plan_from_json(items: Sequence) -> list[PlanStep]:
    steps: list[PlanStep] = []
    u = 0
    for i, item in enumerate(items):
        if item == "EOT":
            steps.append(END_STEP)
        elif item == "EOS":
            steps.append(BREAK_STEP)
        elif isinstance(item, dict) and "entity" in item and "type" in item:
            steps.append(PlanStep("unit", unit=u,
                                  record=RecordRef(str(item["entity"]),
                                                   str(item["type"]))))
            u += 1
        elif isinstance(item, dict) and "unit" in item:
            steps.append(unit_step(int(item["unit"])))
            u += 1
        else:
            raise ValueError(f"plan element {i} is malformed: {item!r}")
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
