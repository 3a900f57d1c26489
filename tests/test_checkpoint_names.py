"""The checkpoint format: every parameter name, in payload order.

``named_parameters()`` decides the tensor directory of ``manifest.json`` and
the byte layout of ``params.bin``, so a renamed or reordered field would
make every saved checkpoint unreadable. The literal lists below were taken
from the models before their names came from ``named_tensors``, less the
scorer bias ``scorer.b``, which checkpoint format 2 dropped.
"""

from dataclasses import dataclass

import numpy as np

from stepsum.acceptance import toy_etc, toy_hibert
from stepsum.autodiff import Tensor, named_tensors
from stepsum.config import config_from_dict
from stepsum.models import build_model

HIBERT_NAMES = [
    "emb.token", "emb.pos_token", "emb.pos_doc", "emb.pos_sum", "emb.begin_summary",
    "sent.0.attn.wq", "sent.0.attn.bq", "sent.0.attn.wk", "sent.0.attn.bk",
    "sent.0.attn.wv", "sent.0.attn.bv", "sent.0.attn.wo", "sent.0.attn.bo",
    "sent.0.ln_attn.gain", "sent.0.ln_attn.bias",
    "sent.0.ffn.w1", "sent.0.ffn.b1", "sent.0.ffn.w2", "sent.0.ffn.b2",
    "sent.0.ln_ffn.gain", "sent.0.ln_ffn.bias",
    "sent.1.attn.wq", "sent.1.attn.bq", "sent.1.attn.wk", "sent.1.attn.bk",
    "sent.1.attn.wv", "sent.1.attn.bv", "sent.1.attn.wo", "sent.1.attn.bo",
    "sent.1.ln_attn.gain", "sent.1.ln_attn.bias",
    "sent.1.ffn.w1", "sent.1.ffn.b1", "sent.1.ffn.w2", "sent.1.ffn.b2",
    "sent.1.ln_ffn.gain", "sent.1.ln_ffn.bias",
    "doc.0.self_attn.wq", "doc.0.self_attn.bq", "doc.0.self_attn.wk", "doc.0.self_attn.bk",
    "doc.0.self_attn.wv", "doc.0.self_attn.bv", "doc.0.self_attn.wo", "doc.0.self_attn.bo",
    "doc.0.ln_self.gain", "doc.0.ln_self.bias",
    "doc.0.cross_attn.wq", "doc.0.cross_attn.bq", "doc.0.cross_attn.wk",
    "doc.0.cross_attn.bk", "doc.0.cross_attn.wv", "doc.0.cross_attn.bv",
    "doc.0.cross_attn.wo", "doc.0.cross_attn.bo",
    "doc.0.ln_cross.gain", "doc.0.ln_cross.bias",
    "doc.0.ffn.w1", "doc.0.ffn.b1", "doc.0.ffn.w2", "doc.0.ffn.b2",
    "doc.0.ln_ffn.gain", "doc.0.ln_ffn.bias",
    "doc.1.self_attn.wq", "doc.1.self_attn.bq", "doc.1.self_attn.wk", "doc.1.self_attn.bk",
    "doc.1.self_attn.wv", "doc.1.self_attn.bv", "doc.1.self_attn.wo", "doc.1.self_attn.bo",
    "doc.1.ln_self.gain", "doc.1.ln_self.bias",
    "doc.1.cross_attn.wq", "doc.1.cross_attn.bq", "doc.1.cross_attn.wk",
    "doc.1.cross_attn.bk", "doc.1.cross_attn.wv", "doc.1.cross_attn.bv",
    "doc.1.cross_attn.wo", "doc.1.cross_attn.bo",
    "doc.1.ln_cross.gain", "doc.1.ln_cross.bias",
    "doc.1.ffn.w1", "doc.1.ffn.b1", "doc.1.ffn.w2", "doc.1.ffn.b2",
    "doc.1.ln_ffn.gain", "doc.1.ln_ffn.bias",
    "scorer.w",
]

ETC_NAMES = [
    "emb.token", "emb.global_kind",
    "layer.0.attn.wq", "layer.0.attn.bq", "layer.0.attn.wk", "layer.0.attn.bk",
    "layer.0.attn.wv", "layer.0.attn.bv", "layer.0.attn.wo", "layer.0.attn.bo",
    "layer.0.attn.relpos", "layer.0.ln_attn.gain", "layer.0.ln_attn.bias",
    "layer.0.ffn.w1", "layer.0.ffn.b1", "layer.0.ffn.w2", "layer.0.ffn.b2",
    "layer.0.ln_ffn.gain", "layer.0.ln_ffn.bias",
    "layer.1.attn.wq", "layer.1.attn.bq", "layer.1.attn.wk", "layer.1.attn.bk",
    "layer.1.attn.wv", "layer.1.attn.bv", "layer.1.attn.wo", "layer.1.attn.bo",
    "layer.1.attn.relpos", "layer.1.ln_attn.gain", "layer.1.ln_attn.bias",
    "layer.1.ffn.w1", "layer.1.ffn.b1", "layer.1.ffn.w2", "layer.1.ffn.b2",
    "layer.1.ln_ffn.gain", "layer.1.ln_ffn.bias",
    "scorer.w",
]


def test_hibert_names_and_order():
    model, _ = toy_hibert()
    assert list(model.named_parameters()) == HIBERT_NAMES


def test_table_mode_hibert_has_the_same_names():
    cfg = config_from_dict(dict(task="rotowire", encoder="hibert", dim=16, num_heads=2,
                                ffn_dim=32, sent_layers=2, doc_layers=2))
    assert list(build_model(cfg, 40).named_parameters()) == HIBERT_NAMES


def test_etc_names_and_order():
    model, _ = toy_etc()
    assert list(model.named_parameters()) == ETC_NAMES


def test_named_tensors_walks_lists_dicts_and_dataclasses_in_order():
    @dataclass
    class Leafy:
        b: Tensor
        a: Tensor | None = None

    t = [Tensor(np.zeros(1)) for _ in range(4)]
    tree = {"z": t[0], "x": [Leafy(t[1]), Leafy(t[2], t[3])]}
    got = named_tensors(tree, "m")
    assert list(got) == ["m.z", "m.x.0.b", "m.x.1.b", "m.x.1.a"]
    assert [id(v) for v in got.values()] == [id(v) for v in t]
