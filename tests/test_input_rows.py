"""Every input row kind, swept.

Each mutation of a valid row (a field dropped, a value of another JSON type,
a repeated id, the id 1 beside the id "1", a line that is not UTF-8 or that
nests too deep) is either a line error that names the row's file line and
leaves the outputs as if the line were absent, or accepted, where the
declaration lets the field be left out, with every other row's output
unchanged. The cheap command of each kind runs every case in process;
train and decode, which read through the same loader, run one case per kind.
"""

import copy
import json

import pytest

from stepsum.acceptance import table3_game
from stepsum.cli import main

# per type of a valid value, values of other JSON types to put in its place;
# the first row of each kind has the id "1", so a row given the id 1 sits beside it
RETYPED = {str: lambda v: [None, 1, [v]], int: lambda v: [str(v), True, 1.5],
           list: lambda v: ["x", {}], dict: lambda v: [[], "x"]}
DROP = object()

DOCUMENTS = [
    {"id": "1", "sentences": [["The", "cat", "sat"], ["a", "dog", "ran"]],
     "abstract": [["the", "cat"]]},
    {"id": "d2", "sentences": [["a", "red", "fox"], ["it", "ran", "far"]],
     "abstract": [["red", "fox", "ran"]]},
    {"id": "d3", "sentences": [["birds", "sing"], ["at", "dawn"]],
     "abstract": [["birds", "at", "dawn"]]},
]
GAMES = [dict(table3_game(), id=gid) for gid in ("1", "g2", "g3")]
PLANS = [
    {"id": "1", "plan": [{"entity": "Chicago_Bulls", "type": "TEAM-PTS"}, "EOT"]},
    {"id": "p2", "plan": [{"entity": "Chicago_Bulls", "type": "TEAM-PTS"}, "EOS",
                          {"unit": 3}, "EOT"]},
    {"id": "p3", "plan": [{"entity": "LA_Lakers", "type": "TEAM-NAME"}, "EOS", "EOT"]},
]
GENERATED = [{"id": "1", "summary_sentences": [["the", "cat"]]},
             {"id": "p2", "summary_sentences": [["a", "red"], ["fox"]]},
             {"id": "p3", "summary_sentences": [["birds"]]}]
REFERENCES = [{"id": "1", "abstract": [["the", "cat", "sat"]]},
              {"id": "p2", "abstract": [["red", "fox"], ["ran"]]},
              {"id": "p3", "abstract": [["birds", "sing"]]}]
# the row each sweep mutates, on file line 2
SWEPT = 1


def paths(value, path=()):
    """The path of every field and list item in a JSON value."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from paths(child, path + (key,))


def at(value, path):
    for key in path:
        value = value[key]
    return value


def replaced(row, path, new):
    row = copy.deepcopy(row)
    if new is DROP:
        del at(row, path[:-1])[path[-1]]
    else:
        at(row, path[:-1])[path[-1]] = new
    return row


def mutations(row, others):
    """(name, line) for each field dropped, each value retyped, the id of
    another row repeated, and lines that are not UTF-8 or nest too deep."""
    for path in paths(row):
        name = ".".join(map(str, path))
        if isinstance(at(row, path[:-1]), dict):
            yield f"drop {name}", json.dumps(replaced(row, path, DROP)).encode()
        for new in RETYPED[type(at(row, path))](at(row, path)):
            yield f"{name} = {new!r}", json.dumps(replaced(row, path, new)).encode()
    yield "repeated id", json.dumps(dict(row, id=others[0]["id"])).encode()
    yield "not UTF-8", json.dumps(row).encode().replace(b'"', b'"\xff', 1)
    yield "nested too deep", b"[" * 100000


def lines_of(rows):
    return [json.dumps(r).encode() for r in rows]


class Sweep:
    """One command over one swept input file, the others fixed.

    ``argv`` maps the swept file's path to the command line; ``outputs``
    are the files the command writes. A run's result is its exit code, its
    stderr, and its stdout and output files as bytes.
    """

    def __init__(self, tmp_path, capsys, argv, outputs):
        self.path = tmp_path / "rows.jsonl"
        self.capsys = capsys
        self.argv = argv
        self.outputs = outputs

    def run(self, lines, end=b"\n"):
        self.path.write_bytes(b"\n".join(lines) + end)
        self.capsys.readouterr()
        code = main([str(a) for a in self.argv(self.path)])
        captured = self.capsys.readouterr()
        return code, captured.err, [captured.out.encode()] + [p.read_bytes() for p in self.outputs]

    def check(self, rows, cases, accepted=lambda name: False, row_output=None):
        """Failed cases, by name: a case must exit 1 naming line 2 and give
        the outputs of the file without it, or be ``accepted`` and exit 0
        with every other row's output (``row_output(outputs, index)``) as it was."""
        lines = lines_of(rows)
        code, err, base = self.run(lines)
        assert code == 0, err
        code, err, outs = self.run(lines, end=b"")  # no newline after the last line
        assert (code, outs) == (0, base), err
        _, _, without = self.run(lines[:SWEPT] + lines[SWEPT + 1:])
        failed = []
        for name, line in cases:
            try:
                code, err, outs = self.run(lines[:SWEPT] + [line] + lines[SWEPT + 1:])
            except Exception as e:  # a traceback is a failed case, not the end of the sweep
                failed.append(f"{name}: {type(e).__name__}: {e}")
                continue
            if code == 1 and f"{self.path}:{SWEPT + 1}: " in err and outs == without:
                continue
            if code == 0 and accepted(name) and all(
                    row_output(outs, i) == row_output(base, i)
                    for i in range(len(rows)) if i != SWEPT):
                continue
            failed.append(f"{name}: exit {code}: {err.strip()}")
        return failed


def write_rows(path, rows):
    path.write_bytes(b"\n".join(lines_of(rows)) + b"\n")
    return path


@pytest.fixture
def oracle_config(tmp_path):
    path = tmp_path / "oracle.cfg"
    path.write_text("[decode]\nmax_steps = 3\n")
    return path


def test_document_rows(tmp_path, capsys, oracle_config):
    out = tmp_path / "oracles.jsonl"
    sweep = Sweep(tmp_path, capsys, lambda p: ["oracle", "--config", oracle_config,
                                               "--in", p, "--out", out], [out])
    assert sweep.check(DOCUMENTS, mutations(DOCUMENTS[SWEPT], DOCUMENTS)) == []


def test_game_rows(tmp_path, capsys):
    out = tmp_path / "units.jsonl"
    sweep = Sweep(tmp_path, capsys, lambda p: ["linearize", "--in", p, "--out", out], [out])
    game = GAMES[SWEPT]
    extra = [("home.stats = [['TEAM-PTS', 3]]", replaced(game, ("home", "stats"), [["TEAM-PTS", 3]])),
             ("home.stats = [1]", replaced(game, ("home", "stats"), [1])),
             ("players = [1]", replaced(game, ("players",), [1]))]
    cases = list(mutations(game, GAMES)) + [(n, json.dumps(r).encode()) for n, r in extra]
    # a game may leave out its players and any stat, and then has fewer records
    failed = sweep.check(GAMES, cases,
                         accepted=lambda name: name == "drop players" or (
                             name.startswith("drop ") and ".stats" in name),
                         row_output=lambda outs, i: outs[1].splitlines()[i])
    assert failed == []


def test_plans_rows(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    sweep = Sweep(tmp_path, capsys, lambda p: ["stats", "--in", p, "--out", hist], [hist])
    plan = PLANS[SWEPT]
    extra = replaced(plan, ("plan", 0), {"entity": None, "type": 5})
    cases = list(mutations(plan, PLANS)) + [("plan.0 = {entity: None, type: 5}",
                                             json.dumps(extra).encode())]
    assert sweep.check(PLANS, cases) == []


@pytest.mark.parametrize("task, gen_rows, ref_rows", [
    ("rouge", GENERATED, REFERENCES),
    ("plan", PLANS, [dict(p, plan=p["plan"][:1] + ["EOT"]) for p in PLANS]),
])
@pytest.mark.parametrize("side", ["gen", "ref"])
def test_generated_and_reference_rows(tmp_path, capsys, task, gen_rows, ref_rows, side):
    report = tmp_path / "report.json"
    fixed = write_rows(tmp_path / "fixed.jsonl", ref_rows if side == "gen" else gen_rows)

    def argv(swept):
        gen, ref = (swept, fixed) if side == "gen" else (fixed, swept)
        return ["eval", "--task", task, "--gen", gen, "--ref", ref, "--out", report]

    rows = gen_rows if side == "gen" else ref_rows
    sweep = Sweep(tmp_path, capsys, argv, [report])
    assert sweep.check(rows, mutations(rows[SWEPT], rows)) == []


# -- train and decode: one case per kind -----------------------------------------


def _config(tmp_path, task):
    path = tmp_path / f"{task}.cfg"
    path.write_text(f"[run]\ntask = {task}\nseed = 3\n"
                    "[model]\ndim = 16\nffn_dim = 32\nsent_layers = 1\ndoc_layers = 1\n"
                    "[optimizer]\ntrain_steps = 2\ncheckpoint_every = 2\nbatch_size = 4\n")
    return path


def _run(capsys, *argv):
    capsys.readouterr()
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().err


def _decode(tmp_path, capsys, cfg, path):
    """Decode ``path`` with the checkpoint trained in ``tmp_path``."""
    out = path.with_suffix(".out")
    code, err = _run(capsys, "decode", "--config", cfg, "--ckpt", tmp_path / "ckpt" / "best",
                     "--in", path, "--out", out)
    return code, err, out.read_bytes()


def test_train_and_decode_read_documents_through_the_loader(tmp_path, capsys):
    cfg = _config(tmp_path, "cnndm")
    bad_doc = replaced(DOCUMENTS[SWEPT], ("sentences", 0, 1), 1)
    bad = write_rows(tmp_path / "bad.jsonl", DOCUMENTS[:SWEPT] + [bad_doc] + DOCUMENTS[SWEPT + 1:])
    good = write_rows(tmp_path / "good.jsonl", DOCUMENTS[:SWEPT] + DOCUMENTS[SWEPT + 1:])
    error = f"error: {bad}:2: 'sentences[0][1]' must be a string"
    code, err = _run(capsys, "train", "--config", cfg, "--train", bad, "--valid", bad,
                     "--out", tmp_path / "ckpt")
    assert code == 1 and err.splitlines().count(error) == 2, err
    code, err, decoded = _decode(tmp_path, capsys, cfg, bad)
    assert (code, err.splitlines()) == (1, [error])
    assert decoded == _decode(tmp_path, capsys, cfg, good)[2]


def test_train_and_decode_read_games_and_plans_through_the_loader(tmp_path, capsys):
    cfg = _config(tmp_path, "rotowire")
    plans = [{"id": g["id"], "plan": [{"entity": "Chicago_Bulls", "type": "TEAM-PTS"}, "EOT"]}
             for g in GAMES]
    bad_games = write_rows(tmp_path / "games.jsonl",
                           GAMES[:SWEPT] + [dict(GAMES[SWEPT], players=[1])] + GAMES[SWEPT + 1:])
    good_games = write_rows(tmp_path / "good-games.jsonl", GAMES[:SWEPT] + GAMES[SWEPT + 1:])
    bad_plans = write_rows(tmp_path / "plans.jsonl",
                           plans[:2] + [dict(plans[2], plan=[{"unit": "3"}, "EOT"])])
    code, err = _run(capsys, "train", "--config", cfg, "--train", bad_games,
                     "--train-plans", bad_plans, "--valid", bad_games, "--valid-plans", bad_plans,
                     "--out", tmp_path / "ckpt")
    assert code == 1, err
    errors = err.splitlines()
    assert errors.count(f"error: {bad_games}:2: 'players[0]' must be an object") == 2, err
    assert errors.count(f"error: {bad_plans}:3: 'plan[0].unit' must be an integer") == 2, err
    assert errors.count(f"error: {bad_games}:3: game g3 has no reference plan") == 2, err
    code, err, decoded = _decode(tmp_path, capsys, cfg, bad_games)
    assert (code, err.splitlines()) == (1, [f"error: {bad_games}:2: 'players[0]' must be an object"])
    assert decoded == _decode(tmp_path, capsys, cfg, good_games)[2]


def test_train_and_decode_report_a_game_over_the_unit_budget(tmp_path, capsys):
    """A game whose records cannot fit ``max_units`` is a line error of its
    own: the other games train and decode as if it were absent."""
    cfg = _config(tmp_path, "rotowire")
    big = copy.deepcopy(GAMES[SWEPT])
    big["players"] = [dict(big["players"][0], key=f"P{i}") for i in range(20)]
    good_games = write_rows(tmp_path / "good-games.jsonl", GAMES[:SWEPT])
    games = write_rows(tmp_path / "games.jsonl", GAMES[:SWEPT] + [big])
    plans = write_rows(tmp_path / "plans.jsonl", [
        {"id": g["id"], "plan": [{"entity": "Chicago_Bulls", "type": "TEAM-PTS"}, "EOT"]}
        for g in GAMES])
    error = f"error: {games}:2: game g2 still has 135 records after dropping all droppable "\
            "entries; budget is 44"

    def train(path, out):
        code, err = _run(capsys, "train", "--config", cfg, "--train", path, "--train-plans",
                         plans, "--valid", path, "--valid-plans", plans, "--out", out)
        return code, err, (out / "best" / "params.bin").read_bytes()

    code, err, params = train(games, tmp_path / "ckpt")
    assert code == 1 and err.splitlines().count(error) == 2, err
    assert params == train(good_games, tmp_path / "good-ckpt")[2]
    code, err, decoded = _decode(tmp_path, capsys, cfg, games)
    assert (code, err.splitlines()) == (1, [error])
    assert decoded == _decode(tmp_path, capsys, cfg, good_games)[2]


def test_train_warns_of_a_plan_record_prefiltered_away(tmp_path, capsys):
    """Prefiltering drops a player's N/A records; a plan that names one is
    warned of against its line in the plans file, and training goes on."""
    game = table3_game()
    game["players"][0]["stats"]["PLAYER-STL"] = "N/A"
    games = write_rows(tmp_path / "games.jsonl", [game])
    plans = write_rows(tmp_path / "plans.jsonl", [
        {"id": "other", "plan": ["EOT"]},
        {"id": "table3", "plan": [{"entity": "Michael_Jordan", "type": "PLAYER-STL"},
                                  {"entity": "Chicago_Bulls", "type": "TEAM-PTS"}, "EOT"]}])
    code, err = _run(capsys, "train", "--config", _config(tmp_path, "rotowire"),
                     "--train", games, "--train-plans", plans, "--valid", games,
                     "--valid-plans", plans, "--out", tmp_path / "ckpt")
    assert code == 0, err
    warning = (f"warning: {plans}:2: game table3: plan record Michael_Jordan|PLAYER-STL "
               "was prefiltered away")
    assert err.splitlines() == [warning, warning]  # the train file, then the valid file


def test_read_jsonl_numbers_lines_as_text_mode_does(tmp_path):
    """A line ends at \\n, \\r\\n or a lone \\r, and at no other line break
    that str.splitlines knows (here U+0085, U+2028 and a form feed)."""
    from stepsum.data import read_jsonl

    raw = ('{"id": "a"}\r\n\r\nnot json\r{"id": "b"}\x0c\n{"id": "c"}\u2028\n'
           '\x85{"id": "d"}\r').encode()
    path = tmp_path / "rows.jsonl"
    path.write_bytes(raw)
    with open(path, encoding="utf-8") as fh:
        text_mode = [(n, json.loads(ln.strip())["id"]) for n, ln in enumerate(fh, start=1)
                     if ln.strip().startswith("{")]
    rows, errors = read_jsonl(str(path), numbered=True)
    assert [(n, row["id"]) for n, row in rows] == text_mode == [(1, "a"), (4, "b"), (5, "c"),
                                                                (6, "d")]
    assert [n for n, _ in errors] == [3]
