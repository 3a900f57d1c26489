"""Config parsing, vocabulary, dataset preparation, checkpoint round-trips."""

import json
import os
import pathlib
from dataclasses import fields

import numpy as np
import pytest

from stepsum.checkpoint import (
    CheckpointError,
    load_checkpoint,
    restore_params,
    save_checkpoint,
    verify_config_match,
)
from stepsum.config import SECTIONS, ConfigError, RunConfig, config_from_dict, load_config
from stepsum.data import (
    Document,
    Vocab,
    candidate_index,
    examples_from_plan,
    parse_document,
    prepare_cnndm,
    prepare_rotowire,
    read_jsonl,
)
from stepsum.models import build_model, load_model
from stepsum.plan import BREAK_STEP, END_STEP, unit_step
from stepsum.rotowire import parse_game
from stepsum.acceptance import table3_game


# -- vocab -----------------------------------------------------------------------


def test_vocab_reserved_prefix_and_oov():
    v = Vocab.from_corpus([["b", "a", "b"]])
    assert v.id_to_token[:2] == ["<pad>", "<unk>"]
    assert v.encode(["b", "zzz"])[1] == v.token_to_id["<unk>"]
    # frequency then lexicographic ordering keeps builds deterministic
    assert v.id_to_token.index("b") < v.id_to_token.index("a")


def test_vocab_round_trip_via_token_list():
    v = Vocab.from_corpus([["x", "y"]])
    again = Vocab.from_token_list(v.id_to_token)
    assert again.id_to_token == v.id_to_token


# -- document prep ---------------------------------------------------------------


def test_parse_document_rejects_empty_sentence():
    with pytest.raises(ValueError):
        parse_document({"id": "d", "sentences": [["a"], []]})


def test_prepare_cnndm_layout():
    doc = Document("d", [["a", "b"], ["c"]], [["a"]])
    v = Vocab.from_corpus(doc.sentences)
    prep = prepare_cnndm(doc, v, max_doc_sents=8, max_sent_len=4)
    assert prep.special_count == 1
    assert prep.unit_tokens[0] == ["<EOT>"]
    assert prep.candidates[0] == END_STEP
    assert prep.candidates[1] == unit_step(0)
    assert prep.n_real_units == 2


def test_prepare_rotowire_layout():
    game = parse_game(table3_game())
    from stepsum.data import rotowire_corpus_sentences

    v = Vocab.from_corpus(rotowire_corpus_sentences([game], 64))
    prep = prepare_rotowire(game, v, max_units=64, max_sent_len=16)
    assert prep.special_count == 2
    assert prep.unit_tokens[0] == ["<EOS>"]
    assert prep.unit_tokens[1] == ["<EOT>"]
    assert prep.candidates[0] == BREAK_STEP
    assert prep.candidates[1] == END_STEP
    assert len(prep.records) == prep.n_real_units


def test_candidate_index_mapping():
    doc = Document("d", [["a"], ["b"]])
    v = Vocab.from_corpus(doc.sentences)
    prep = prepare_cnndm(doc, v, max_doc_sents=4, max_sent_len=4)
    assert candidate_index(prep, END_STEP) == 0
    assert candidate_index(prep, unit_step(1)) == 2
    with pytest.raises(ValueError):
        candidate_index(prep, BREAK_STEP)


def test_examples_from_plan_appends_stop():
    doc = Document("d", [["a"], ["b"]])
    v = Vocab.from_corpus(doc.sentences)
    prep = prepare_cnndm(doc, v, max_doc_sents=4, max_sent_len=4)
    examples = examples_from_plan(prep, [unit_step(1)])
    assert len(examples) == 2
    assert examples[0].prefix == () and examples[0].target == 2
    assert examples[1].target == 0  # the stop marker slot


def test_read_jsonl_collects_malformed_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "a"}\nnot json\n{"id": "b"}\n')
    rows, errors = read_jsonl(str(path))
    assert [r["id"] for r in rows] == ["a", "b"]
    assert len(errors) == 1 and errors[0][0] == 2


def test_read_jsonl_reports_lines_that_are_not_objects(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "a"}\n[1]\n"s"\n3\nnull\n{"id": "b"}\n')
    rows, errors = read_jsonl(str(path), numbered=True)
    assert [(lineno, r["id"]) for lineno, r in rows] == [(1, "a"), (6, "b")]
    assert errors == [(lineno, f"expected a JSON object, got {kind}")
                      for lineno, kind in ((2, "list"), (3, "str"), (4, "int"), (5, "NoneType"))]


def test_read_jsonl_numbers_rows_by_file_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "a"}\n\nnot json\n  \n{"id": "b"}\n')
    rows, errors = read_jsonl(str(path), numbered=True)
    assert [(lineno, r["id"]) for lineno, r in rows] == [(1, "a"), (5, "b")]
    assert [lineno for lineno, _ in errors] == [3]


# -- config ----------------------------------------------------------------------


def test_desk_preset_is_default():
    cfg = config_from_dict({})
    assert cfg.dim == 64 and cfg.batch_size == 8


def test_paper_preset_values():
    cfg = config_from_dict({"encoder": "etc"}, preset="paper")
    assert cfg.etc_layers == 12
    assert cfg.long_budget == 6141 and cfg.summary_budget == 2048
    assert cfg.global_cap == 512
    assert cfg.learning_rate == pytest.approx(0.000025)
    hib = config_from_dict({"encoder": "hibert"}, preset="paper")
    assert hib.sent_layers == 8 and hib.doc_layers == 4
    assert hib.learning_rate == pytest.approx(0.01)
    assert hib.max_sent_len == 32 and hib.max_doc_sents == 128


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"warp_factor": 9})


def test_invalid_ranges_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"dim": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"dim": 65})  # not divisible by heads
    with pytest.raises(ConfigError):
        config_from_dict({"relpos_vocab_size": 4, "relpos_max_distance": 4})
    with pytest.raises(ConfigError):
        config_from_dict({"local_radius": -1})
    with pytest.raises(ConfigError):
        config_from_dict({"task": "sports"})


def test_doc_positions_follow_task():
    assert config_from_dict({"task": "cnndm"}).doc_positions_enabled()
    assert not config_from_dict({"task": "rotowire"}).doc_positions_enabled()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[run]\ntask = rotowire\nencoder = hibert\nseed = 9\n"
        "[model]\ndim = 32\nnum_heads = 2\n"
        "[decode]\nno_repeat = false\n"
    )
    cfg = load_config(str(path))
    assert cfg.task == "rotowire" and cfg.dim == 32 and not cfg.no_repeat


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[model]\nwarp = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_config_file_wrong_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[run]\ndim = 32\n")
    with pytest.raises(ConfigError, match="belongs in"):
        load_config(str(path))


def test_arch_hash_sensitivity():
    a = config_from_dict({})
    b = config_from_dict({"dim": 32})
    assert a.arch_hash(100) != b.arch_hash(100)
    assert a.arch_hash(100) != a.arch_hash(101)
    assert a.arch_hash(100) == config_from_dict({}).arch_hash(100)
    # optimizer settings do not change the architecture
    c = config_from_dict({"learning_rate": 0.5})
    assert a.arch_hash(100) == c.arch_hash(100)


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name, digest", [
    ("desk_cnndm_hibert.cfg", "3577c23160c09d9d27a340c0b8161121ef0c614c2c45801ae73d1ef4f75faf53"),
    ("desk_cnndm_etc.cfg", "3b9010337e5ea19efa865c2ac56c0afbb17f50357a93e2f749c1f40a928e4b98"),
    ("desk_rotowire_etc.cfg", "2ee915fed0b71f86d3f2530a838d2c02ff3827b42bb6dc287c0be8c9346e1db5"),
    ("paper_cnndm_etc.cfg", "2b3a6b7e95cb7b315b643499d6cbd47ef8594437372c4835fbce04619820537a"),
])
def test_shipped_configs_keep_their_arch_hash(name, digest):
    # a checkpoint carries this hash; a new one would refuse every saved checkpoint
    assert load_config(str(CONFIGS / name)).arch_hash(3000) == digest


def test_every_key_names_a_section():
    assert SECTIONS == ("run", "model", "optimizer", "decode", "data")
    assert all(f.metadata["section"] in SECTIONS for f in fields(RunConfig))


def test_validate_names_the_first_key_below_one():
    positive = ["dim", "num_heads", "ffn_dim", "sent_layers", "doc_layers", "etc_layers",
                "max_sent_len", "max_doc_sents", "max_plan_len", "long_budget",
                "summary_budget", "global_cap", "batch_size", "train_steps",
                "checkpoint_every", "beam_size", "max_steps", "max_units"]
    assert [f.name for f in fields(RunConfig) if f.metadata["positive"]] == positive
    for k, name in enumerate(positive):
        with pytest.raises(ConfigError, match=f"^{name} must be positive$"):
            config_from_dict(dict.fromkeys(positive[k:], 0))
    with pytest.raises(ConfigError, match="^learning_rate must be positive$"):
        config_from_dict({"learning_rate": 0.0, "init_std": 0.0})


# -- checkpoints ------------------------------------------------------------------


def small_model_and_cfg(encoder="hibert"):
    cfg = config_from_dict({
        "encoder": encoder, "dim": 16, "ffn_dim": 32, "sent_layers": 1,
        "doc_layers": 1, "etc_layers": 1, "max_sent_len": 6, "max_doc_sents": 8,
        "long_budget": 24, "summary_budget": 12, "global_cap": 8,
        "local_radius": 2,
    })
    vocab = Vocab.from_corpus([["alpha", "beta", "gamma"]])
    model = build_model(cfg, len(vocab))
    return cfg, vocab, model


def test_checkpoint_round_trip_bytes(tmp_path):
    cfg, vocab, model = small_model_and_cfg()
    d1 = str(tmp_path / "c1")
    d2 = str(tmp_path / "c2")
    save_checkpoint(d1, model.named_parameters(), cfg, vocab.id_to_token)
    manifest, arrays = load_checkpoint(d1)
    model2 = build_model(cfg, len(vocab))
    restore_params(model2.named_parameters(), arrays)
    save_checkpoint(d2, model2.named_parameters(), cfg, vocab.id_to_token)
    for name in ("manifest.json", "params.bin"):
        b1 = open(os.path.join(d1, name), "rb").read()
        b2 = open(os.path.join(d2, name), "rb").read()
        assert b1 == b2, name


def test_checkpoint_restores_exact_values(tmp_path):
    cfg, vocab, model = small_model_and_cfg()
    path = str(tmp_path / "ck")
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    _, arrays = load_checkpoint(path)
    fresh = build_model(cfg, len(vocab), seed=999)
    restore_params(fresh.named_parameters(), arrays)
    for name, p in model.named_parameters().items():
        assert np.array_equal(p.data, fresh.named_parameters()[name].data), name


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    from stepsum import checkpoint

    cfg, vocab, model = small_model_and_cfg()
    path = str(tmp_path / "ck")
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    saved = {name: p.data.copy() for name, p in model.named_parameters().items()}
    for p in model.named_parameters().values():
        p.data += 1.0

    class HalfWritten:
        """A payload file whose write stops halfway with a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("No space left on device")

    def payload_write_fails(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return HalfWritten(fh) if "params.bin" in str(file) and "w" in mode else fh

    monkeypatch.setattr(checkpoint, "open", payload_write_fails, raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    monkeypatch.undo()

    assert sorted(os.listdir(path)) == ["manifest.json", "params.bin"]
    _, arrays = load_checkpoint(path)
    for name, want in saved.items():
        assert np.array_equal(arrays[name], want), name
    # the next save goes through and replaces both files
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    _, arrays = load_checkpoint(path)
    for name, p in model.named_parameters().items():
        assert np.array_equal(arrays[name], p.data), name


def test_save_syncs_each_file_before_its_rename_and_the_directory_after(tmp_path,
                                                                        monkeypatch):
    import stat

    from stepsum import checkpoint

    cfg, vocab, model = small_model_and_cfg()
    path = str(tmp_path / "ck")
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        events.append(("fsync", kind, os.fstat(fd).st_size))
        fsync(fd)

    def recording_replace(src, dst):
        events.append(("replace", os.path.basename(dst), os.path.getsize(src)))
        replace(src, dst)

    monkeypatch.setattr(checkpoint.os, "fsync", recording_fsync)
    monkeypatch.setattr(checkpoint.os, "replace", recording_replace)
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    monkeypatch.undo()

    sizes = {name: os.path.getsize(os.path.join(path, name))
             for name in ("params.bin", "manifest.json")}
    assert [e[:2] for e in events] == [
        ("fsync", "file"), ("replace", "params.bin"), ("fsync", "dir"),
        ("fsync", "file"), ("replace", "manifest.json"), ("fsync", "dir")]
    # each file is synced whole, then renamed
    assert events[0][2] == events[1][2] == sizes["params.bin"]
    assert events[3][2] == events[4][2] == sizes["manifest.json"]


def test_save_writes_each_tensor_in_payload_order(tmp_path, monkeypatch):
    """The payload goes to its file tensor by tensor, in manifest order, as
    the tensors' own bytes, not as one joined copy."""
    from stepsum import checkpoint

    cfg, vocab, model = small_model_and_cfg("etc")
    params = model.named_parameters()
    writes = []

    class Recording:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            writes.append(memoryview(data).nbytes)
            return self.fh.write(data)

        def flush(self):
            self.fh.flush()

        def fileno(self):
            return self.fh.fileno()

    def recording_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return Recording(fh) if "params.bin" in str(file) and "w" in mode else fh

    monkeypatch.setattr(checkpoint, "open", recording_open, raising=False)
    path = str(tmp_path / "ck")
    save_checkpoint(path, params, cfg, vocab.id_to_token)
    monkeypatch.undo()
    assert writes == [8 * p.size for p in params.values()]
    with open(os.path.join(path, "params.bin"), "rb") as fh:
        assert fh.read() == b"".join(p.data.astype("<f8").tobytes() for p in params.values())


@pytest.mark.parametrize("tamper", ["no_offset", "no_tensors", "no_vocab", "vocab_string",
                                    "vocab_numbers", "shape_string", "size_string",
                                    "entry_list", "not_an_object"])
def test_manifest_with_missing_or_mistyped_field_rejected(tmp_path, tamper):
    cfg, vocab, model = small_model_and_cfg()
    path = str(tmp_path / "ck")
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as fh:
        blob = json.load(fh)
    first = blob["tensors"][0]
    if tamper == "no_offset":
        del first["offset"]
    elif tamper == "no_tensors":
        del blob["tensors"]
    elif tamper == "no_vocab":
        del blob["vocab"]
    elif tamper == "vocab_string":  # would read as a list of its characters
        blob["vocab"] = "".join(blob["vocab"])
    elif tamper == "vocab_numbers":
        blob["vocab"] = list(range(len(blob["vocab"])))
    elif tamper == "shape_string":
        first["shape"] = "x".join(map(str, first["shape"]))
    elif tamper == "size_string":
        first["size"] = str(first["size"])
    elif tamper == "entry_list":
        blob["tensors"][0] = list(first.values())
    else:
        blob = [blob]
    with open(manifest_path, "w") as fh:
        json.dump(blob, fh)
    with pytest.raises(CheckpointError, match="missing or mistyped field"):
        load_checkpoint(path)


def test_config_hash_mismatch_is_hard_error(tmp_path):
    cfg, vocab, model = small_model_and_cfg()
    path = str(tmp_path / "ck")
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    manifest, _ = load_checkpoint(path)
    other = config_from_dict({"dim": 32, "ffn_dim": 64})
    with pytest.raises(CheckpointError, match="hash"):
        verify_config_match(manifest, other)


def test_tampered_manifest_rejected(tmp_path):
    cfg, vocab, model = small_model_and_cfg()
    path = str(tmp_path / "ck")
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    manifest_path = os.path.join(path, "manifest.json")
    blob = json.load(open(manifest_path))
    blob["config"]["dim"] = 32
    json.dump(blob, open(manifest_path, "w"))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", [1, 8])
def test_truncated_payload_rejected(tmp_path, cut):
    cfg, vocab, model = small_model_and_cfg()
    path = str(tmp_path / "ck")
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    payload = os.path.join(path, "params.bin")
    size = os.path.getsize(payload)
    with open(payload, "r+b") as fh:
        fh.truncate(size - cut)
    with pytest.raises(CheckpointError,
                       match=f"params.bin holds {size - cut} bytes, its manifest lists {size}"):
        load_checkpoint(path)


def test_loaded_arrays_are_read_only_views_of_one_payload(tmp_path):
    cfg, vocab, model = small_model_and_cfg("etc")
    path = str(tmp_path / "ck")
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    _, arrays = load_checkpoint(path)
    payload = arrays["emb.token"].base
    assert payload.nbytes == os.path.getsize(os.path.join(path, "params.bin"))
    for name, arr in arrays.items():
        assert arr.base is payload and not arr.flags.writeable, name
        assert np.shares_memory(arr, payload), name


@pytest.mark.parametrize("tamper", ["swapped", "overlapping", "misshapen", "past_end"])
def test_manifest_that_does_not_tile_the_payload_rejected(tmp_path, tamper):
    """Each entry's offset must be 8 times the sum of the sizes before it,
    and its shape's product its size; the error names the tensor."""
    cfg, vocab, model = small_model_and_cfg("etc")
    path = str(tmp_path / "ck")
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as fh:
        blob = json.load(fh)
    token, kind, *_, last = blob["tensors"]
    assert (token["name"], kind["name"]) == ("emb.token", "emb.global_kind")
    if tamper == "swapped":
        token["offset"], kind["offset"] = kind["offset"], token["offset"]
        bad = "emb.token"
    elif tamper == "overlapping":
        kind["offset"] -= 8
        bad = "emb.global_kind"
    elif tamper == "misshapen":
        kind["shape"] = [kind["shape"][0] + 1, kind["shape"][1]]
        bad = "emb.global_kind"
    else:
        last["offset"] = os.path.getsize(os.path.join(path, "params.bin")) + 8
        bad = last["name"]
    with open(manifest_path, "w") as fh:
        json.dump(blob, fh)
    with pytest.raises(CheckpointError, match=f"tensor {bad} .*does not tile the payload"):
        load_checkpoint(path)


def test_restore_rejects_name_mismatch(tmp_path):
    cfg, vocab, model = small_model_and_cfg()
    path = str(tmp_path / "ck")
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    _, arrays = load_checkpoint(path)
    del arrays["scorer.w"]
    fresh = build_model(cfg, len(vocab))
    with pytest.raises(CheckpointError, match="disagree"):
        restore_params(fresh.named_parameters(), arrays)


@pytest.mark.parametrize("encoder", ["hibert", "etc"])
def test_loaded_model_holds_exactly_the_checkpoint(tmp_path, encoder):
    """``load_model`` builds the parameter tree ``build_model`` lays out,
    holding the checkpoint's arrays: the same names, shapes and values."""
    cfg, vocab, model = small_model_and_cfg(encoder)
    path = str(tmp_path / "ck")
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    _, arrays = load_checkpoint(path)
    loaded = load_model(cfg, len(vocab), arrays).named_parameters()
    assert list(loaded) == list(model.named_parameters())
    for name, p in loaded.items():
        assert p.data.tobytes() == arrays[name].tobytes(), name
        assert p.requires_grad


@pytest.mark.parametrize("encoder", ["hibert", "etc"])
def test_load_model_rejects_missing_and_misshapen_tensors(tmp_path, encoder):
    cfg, vocab, model = small_model_and_cfg(encoder)
    path = str(tmp_path / "ck")
    save_checkpoint(path, model.named_parameters(), cfg, vocab.id_to_token)
    _, arrays = load_checkpoint(path)
    missing = dict(arrays)
    del missing["scorer.w"]
    with pytest.raises(CheckpointError, match="disagree"):
        load_model(cfg, len(vocab), missing)
    misshapen = dict(arrays, **{"scorer.w": arrays["scorer.w"][:-1]})
    with pytest.raises(CheckpointError, match="scorer.w: checkpoint shape"):
        load_model(cfg, len(vocab), misshapen)
