import numpy as np
import pytest

from stepsum.acceptance import table3_game
from stepsum.plan import BREAK_STEP, END_STEP, RecordRef, unit_step
from stepsum.rotowire import (
    GameFormatError,
    PLAYER_TEMPLATES,
    RankedRecord,
    TEAM_TEMPLATES,
    game_records,
    linearize_plan,
    missing_plan_records,
    parse_game,
    plan_from_json,
    plan_stats,
    plan_to_json,
    prefilter,
    rank_records,
    templated_sentence,
    templated_units,
)


@pytest.fixture
def game():
    return parse_game(table3_game())


def ranked(game, entity, rtype):
    for rec in rank_records(game):
        if rec.ref.entity == entity and rec.ref.type == rtype:
            return rec
    raise KeyError((entity, rtype))


# -- parsing --------------------------------------------------------------------


def test_parse_table3_points(game):
    assert game.teams[0].key == "Chicago_Bulls"
    assert game.teams[0].home
    assert game.teams[0].stats["TEAM-PTS"] == "100"
    assert game.teams[1].stats["TEAM-PTS"] == "80"
    assert not game.teams[1].home


def test_parse_date_string(game):
    assert game.date == (2018, 10, 22, 5)  # Saturday, Monday = 0


def test_parse_date_object():
    raw = table3_game()
    raw["date"] = {"year": 2016, "month": 3, "day": 7, "weekday": "Wednesday"}
    assert parse_game(raw).date == (2016, 3, 7, 2)


@pytest.mark.parametrize("date", [
    {"year": 2016, "month": 13, "day": 40, "weekday": "Monday"},
    {"year": 2015, "month": 2, "day": 29, "weekday": "Sunday"},
    {"year": 0, "month": 1, "day": 1, "weekday": "Monday"},
    {"year": 2 ** 70, "month": 1, "day": 1, "weekday": "Monday"},
    "Monday, 40th March 2016",
    "Sunday, 29th February 2015",
], ids=str)
def test_date_off_the_calendar_rejected(date):
    raw = table3_game()
    raw["date"] = date
    with pytest.raises(GameFormatError, match="^'date' must be a date on the calendar"):
        parse_game(raw)


def test_leap_day_read_and_weekday_not_checked():
    raw = table3_game()
    raw["date"] = "Friday, 29th February 2016"  # a Monday
    assert parse_game(raw).date == (2016, 2, 29, 4)


def test_missing_team_line_rejected():
    raw = table3_game()
    del raw["visitor"]
    with pytest.raises(GameFormatError, match="visitor"):
        parse_game(raw)


def test_shared_team_key_rejected():
    raw = table3_game()
    raw["visitor"]["key"] = raw["home"]["key"]
    with pytest.raises(GameFormatError, match="^visitor.key: "):
        parse_game(raw)


def test_shared_team_key_line_reported_and_skipped(tmp_path, capsys):
    import json

    from stepsum.cli import main

    bad = table3_game()
    bad["id"] = "bad"
    bad["visitor"]["key"] = bad["home"]["key"]
    src = tmp_path / "games.jsonl"
    src.write_text(json.dumps(table3_game()) + "\n" + json.dumps(bad) + "\n")
    out = tmp_path / "units.jsonl"
    assert main(["linearize", "--in", str(src), "--out", str(out)]) == 1
    assert f"{src}:2: visitor.key" in capsys.readouterr().err
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["table3"]


def test_missing_player_field_rejected():
    raw = table3_game()
    del raw["players"][0]["team"]
    with pytest.raises(GameFormatError, match=r"players\[0\].team"):
        parse_game(raw)


def test_zero_players_valid_but_warned():
    raw = table3_game()
    raw["players"] = []
    game = parse_game(raw)
    assert any("no player lines" in w for w in game.warnings)


def test_unknown_entry_type_preserved_with_warning():
    """The game survives an unknown entry type; the key itself is dropped,
    since no template can render it."""
    raw = table3_game()
    raw["home"]["stats"]["TEAM-MOJO"] = "11"
    game = parse_game(raw)
    assert "TEAM-MOJO" not in game.teams[0].stats
    assert game.warnings == ["home.stats: dropped unknown entry type TEAM-MOJO"]
    assert game_records(game) == game_records(parse_game(table3_game()))


def test_cli_prints_game_warnings_and_keeps_exit_code(tmp_path, capsys):
    import json

    from stepsum.cli import main

    raw = dict(table3_game(), id="table3-mojo")  # each row of a file has its own id
    # an N/A player value is prefiltered away, so no template is asked for
    raw["players"][1]["stats"]["PLAYER-MOJO"] = "N/A"
    src = tmp_path / "games.jsonl"
    src.write_text(json.dumps(table3_game()) + "\n" + json.dumps(raw) + "\n")
    assert main(["linearize", "--in", str(src), "--out", str(tmp_path / "units.jsonl")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {src}:2: game table3-mojo: players[1].stats: dropped unknown entry type "
        "PLAYER-MOJO"]


def test_cli_linearize_keeps_a_game_with_an_unknown_stat_type(tmp_path, capsys):
    import json

    from stepsum.cli import main

    raw = dict(table3_game(), id="table3-mojo")  # each row of a file has its own id
    raw["home"]["stats"]["TEAM-MOJO"] = "11"
    src, out = tmp_path / "games.jsonl", tmp_path / "units.jsonl"
    src.write_text(json.dumps(table3_game()) + "\n" + json.dumps(raw) + "\n")
    assert main(["linearize", "--in", str(src), "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {src}:2: game table3-mojo: home.stats: dropped unknown entry type TEAM-MOJO"]
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 2
    assert (rows[0]["units"], rows[0]["records"]) == (rows[1]["units"], rows[1]["records"])


# -- ranking --------------------------------------------------------------------


def test_team_points_ranks(game):
    assert ranked(game, "Chicago_Bulls", "TEAM-PTS").rank == 1
    assert ranked(game, "LA_Lakers", "TEAM-PTS").rank == 2


def test_competition_ranking_with_ties():
    raw = table3_game()
    raw["players"][0]["stats"]["PLAYER-PTS"] = "30"  # ties the other player
    raw["players"].append({
        "key": "Third_Player", "first_name": "Third", "second_name": "Player",
        "team": "home", "stats": {"PLAYER-PTS": "5"}})
    game = parse_game(raw)
    assert ranked(game, "Michael_Jordan", "PLAYER-PTS").rank == 1
    assert ranked(game, "Shaquille_O'Neal", "PLAYER-PTS").rank == 1
    assert ranked(game, "Third_Player", "PLAYER-PTS").rank == 3


def test_single_entity_in_type_ranks_first():
    raw = table3_game()
    raw["players"][0]["stats"]["PLAYER-BLK"] = "2"
    game = parse_game(raw)
    assert ranked(game, "Michael_Jordan", "PLAYER-BLK").rank == 1


def test_non_numeric_values_unranked(game):
    assert ranked(game, "Chicago_Bulls", "TEAM-NAME").rank is None
    assert ranked(game, "match", "MATCH-DATE").rank is None


def test_rank_consistency_property():
    rng = np.random.default_rng(4)
    raw = table3_game()
    for i in range(6):
        raw["players"].append({
            "key": f"P{i}", "first_name": "F", "second_name": "L",
            "team": "home", "stats": {"PLAYER-PTS": str(int(rng.integers(0, 30)))}})
    game = parse_game(raw)
    recs = [r for r in rank_records(game) if r.ref.type == "PLAYER-PTS"]
    values = {r.ref.entity: float(r.ref.value) for r in recs}
    for rec in recs:
        greater = sum(1 for v in values.values() if v > float(rec.ref.value))
        assert rec.rank == greater + 1


# -- prefiltering -----------------------------------------------------------------


def test_prefilter_identity_when_under_budget(game):
    refs = game_records(game)
    assert prefilter(game, max_units=999) == refs


def test_prefilter_drops_all_na_unconditionally():
    raw = table3_game()
    raw["players"][0]["stats"]["PLAYER-MIN"] = "N/A"
    game = parse_game(raw)
    refs = prefilter(game, max_units=999)
    assert all(not (r.type == "PLAYER-MIN" and r.entity == "Michael_Jordan")
               for r in refs)


def test_prefilter_drops_last_zeros_first():
    raw = table3_game()
    # three zero-valued entries across the two players, in canonical order
    raw["players"][0]["stats"]["PLAYER-STL"] = "0"
    raw["players"][0]["stats"]["PLAYER-BLK"] = "0"
    raw["players"][1]["stats"]["PLAYER-TO"] = "0"
    game = parse_game(raw)
    all_refs = prefilter(game, max_units=999)
    zero_refs = [r for r in all_refs if r.value == "0"]
    assert len(zero_refs) == 3
    # budget forcing exactly one drop: the LAST zero in canonical order goes
    refs = prefilter(game, max_units=len(all_refs) - 1)
    kept_zeros = [r for r in refs if r.value == "0"]
    assert kept_zeros == zero_refs[:2]
    # forcing three drops removes exactly the trailing three zeros
    refs = prefilter(game, max_units=len(all_refs) - 3)
    assert [r for r in refs if r.value == "0"] == []


def test_prefilter_never_drops_team_or_date_records():
    raw = table3_game()
    game = parse_game(raw)
    n_team_and_date = sum(1 for r in game_records(game)
                          if not r.type.startswith("PLAYER-"))
    with pytest.raises(GameFormatError, match="budget"):
        prefilter(game, max_units=n_team_and_date - 1)


def test_prefilter_reserved_slots():
    game = parse_game(table3_game())
    full = prefilter(game, max_units=999)
    assert len(prefilter(game, max_units=len(full) + 2, reserved=2)) == len(full)


def test_missing_plan_records_reported():
    game = parse_game(table3_game())
    units = prefilter(game, max_units=999)
    plan = [unit_step(0, RecordRef("Chicago_Bulls", "TEAM-PTS")),
            unit_step(1, RecordRef("Ghost_Team", "TEAM-PTS"))]
    missing = missing_plan_records(units, plan)
    assert missing == [RecordRef("Ghost_Team", "TEAM-PTS")]


# -- templating -------------------------------------------------------------------


def test_worked_example_exact_string(game):
    rec = ranked(game, "Chicago_Bulls", "TEAM-PTS")
    assert " ".join(templated_sentence(rec, game)) == \
        "team points scored of Chicago_Bulls is 100 which is 1st best"


def test_second_best_suffix(game):
    rec = ranked(game, "LA_Lakers", "TEAM-PTS")
    assert " ".join(templated_sentence(rec, game)).endswith("is 80 which is 2nd best")


def test_home_away_templates(game):
    home = ranked(game, "Chicago_Bulls", "TEAM-HOME_AWAY")
    away = ranked(game, "LA_Lakers", "TEAM-HOME_AWAY")
    assert " ".join(templated_sentence(home, game)) == \
        "Chicago_Bulls is home team of match"
    assert " ".join(templated_sentence(away, game)) == \
        "LA_Lakers is away team of match"


def test_date_template_weekday_token(game):
    rec = ranked(game, "match", "MATCH-DATE")
    words = templated_sentence(rec, game)
    assert words == ["match", "date", "of", "match", "is", "year:", "2018",
                     "month:", "10", "day:", "22", "day_of_week:", "5"]


def test_player_membership_template(game):
    rec = ranked(game, "Michael_Jordan", "PLAYER-TEAM")
    assert " ".join(templated_sentence(rec, game)) == \
        "Michael_Jordan is player of Chicago_Bulls"


def test_rank_suffix_even_when_high_is_bad(game):
    # losses rank by magnitude like everything else
    rec = ranked(game, "LA_Lakers", "TEAM-LOSSES")
    assert " ".join(templated_sentence(rec, game)).endswith("which is 1st best")


def test_unknown_type_rejected(game):
    rec = RankedRecord(RecordRef("x", "TEAM-UNKNOWN", "1"), None)
    with pytest.raises(GameFormatError, match="TEAM-UNKNOWN"):
        templated_sentence(rec, game)


def test_template_totality():
    """Every known entry type renders against a representative game."""
    raw = table3_game()
    for t in TEAM_TEMPLATES:
        raw["home"]["stats"].setdefault(t, "7")
    for t in PLAYER_TEMPLATES:
        raw["players"][0]["stats"].setdefault(t, "3")
    game = parse_game(raw)
    rendered_types = set()
    for rec in rank_records(game):
        words = templated_sentence(rec, game)
        assert words, rec.ref.type
        rendered_types.add(rec.ref.type)
    for t in list(TEAM_TEMPLATES) + list(PLAYER_TEMPLATES):
        assert t in rendered_types


def test_templated_units_align_with_prefilter(game):
    refs, units = templated_units(game, max_units=999)
    assert len(refs) == len(units)
    assert all(isinstance(u, list) and u for u in units)


# -- plan linearization ------------------------------------------------------------


def table3_s1_plan():
    return [
        unit_step(0, RecordRef("Chicago_Bulls", "TEAM-CITY")),
        unit_step(1, RecordRef("Chicago_Bulls", "TEAM-NAME")),
        unit_step(2, RecordRef("LA_Lakers", "TEAM-CITY")),
        unit_step(3, RecordRef("LA_Lakers", "TEAM-NAME")),
        unit_step(4, RecordRef("Chicago_Bulls", "TEAM-PTS")),
        unit_step(5, RecordRef("LA_Lakers", "TEAM-PTS")),
        unit_step(6, RecordRef("match", "MATCH-DATE")),
        BREAK_STEP,
    ]


def test_empty_plan_linearizes_to_markers():
    assert linearize_plan([]) == ["<BEG>", "<EOT>"]


def test_table3_s1_fragment_order():
    tokens = linearize_plan(table3_s1_plan())
    assert tokens[0] == "<BEG>"
    assert tokens[1] == "Chicago_Bulls|TEAM-CITY"
    assert tokens[-2:] == ["<EOS>", "<EOT>"]


def test_linearize_round_trip():
    # through the plan JSON that decode writes and eval and train read
    tokens = linearize_plan(table3_s1_plan())
    steps = plan_from_json(plan_to_json(table3_s1_plan() + [END_STEP]))
    assert linearize_plan(steps) == tokens


def test_steps_after_end_rejected():
    with pytest.raises(ValueError):
        linearize_plan([END_STEP, BREAK_STEP])


def test_plan_json_round_trip():
    plan = table3_s1_plan() + [END_STEP]
    blob = plan_to_json(plan)
    assert blob[-1] == "EOT" and blob[-2] == "EOS"
    again = plan_from_json(blob)
    assert plan_to_json(again) == blob


def test_plan_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        plan_from_json([{"bogus": 1}])


# -- stats ---------------------------------------------------------------------


def test_plan_stats_means():
    p1 = table3_s1_plan() + [END_STEP]          # 7 entries, 1 sentence
    p2 = table3_s1_plan()[:3] + [END_STEP]      # 3 entries, 1 unterminated sentence
    stats = plan_stats([p1, p2])
    assert stats.plans == 2
    assert stats.mean_entries == pytest.approx(5.0)
    assert stats.mean_sentences == pytest.approx(1.0)
    assert stats.length_histogram == {7: 1, 3: 1}
