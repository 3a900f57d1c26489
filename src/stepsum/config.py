"""Run configuration: presets, file parsing, validation, and hashing.

Config files are INI-style text (sections of ``key = value`` lines). A
``preset`` key in [run] picks the base values (``desk`` by default, sized so
gradient checks and overfit runs finish in minutes on one core; ``paper``
carries the full-scale hyperparameters); every other key overrides the
preset. Unknown keys are rejected outright. ``RunConfig`` is the only
model config: both encoders read it directly.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass, fields

from .attention import AttentionConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # run
    task: str = "cnndm"               # cnndm | rotowire
    encoder: str = "etc"              # hibert | etc
    seed: int = 13
    # model
    dim: int = 64
    num_heads: int = 2
    ffn_dim: int = 256
    sent_layers: int = 2
    doc_layers: int = 2
    etc_layers: int = 2
    max_sent_len: int = 16
    max_doc_sents: int = 48
    max_plan_len: int = 8
    long_budget: int = 381
    summary_budget: int = 126
    global_cap: int = 64
    local_radius: int = 8
    relpos_vocab_size: int = 24
    relpos_max_distance: int = 10
    init_std: float = 0.02
    # optimizer
    learning_rate: float = 1e-3
    batch_size: int = 8
    train_steps: int = 5000
    checkpoint_every: int = 200
    # decode
    beam_size: int = 3
    max_steps: int = 4
    no_repeat: bool = True
    trigram_blocking: bool = False
    # data
    max_units: int = 46

    def doc_positions_enabled(self) -> bool:
        # table entries are a set, not a sequence; plan positions stay
        return self.task == "cnndm"

    def attention(self) -> AttentionConfig:
        """The attention settings of the flat encoder's layers."""
        return AttentionConfig(
            num_heads=self.num_heads,
            model_dim=self.dim,
            local_radius=self.local_radius,
            relpos_vocab_size=self.relpos_vocab_size,
            max_distance=self.relpos_max_distance,
        )

    def validate(self) -> None:
        if self.task not in ("cnndm", "rotowire"):
            raise ConfigError(f"task must be cnndm or rotowire, got {self.task!r}")
        if self.encoder not in ("hibert", "etc"):
            raise ConfigError(f"encoder must be hibert or etc, got {self.encoder!r}")
        positive = [
            "dim", "num_heads", "ffn_dim", "sent_layers", "doc_layers",
            "etc_layers", "max_sent_len", "max_doc_sents", "max_plan_len",
            "long_budget", "summary_budget", "global_cap", "batch_size",
            "train_steps", "checkpoint_every", "beam_size", "max_steps", "max_units",
        ]
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        try:
            self.attention()
        except ValueError as e:
            raise ConfigError(str(e)) from None
        for name in ("learning_rate", "init_std"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.max_steps + 1 > self.max_plan_len:
            raise ConfigError("max_plan_len must exceed max_steps (begin slot included)")

    def arch_hash(self, vocab_size: int) -> str:
        """Hash of everything that fixes parameter shapes and wiring."""
        keys = [
            "task", "encoder", "dim", "num_heads", "ffn_dim", "sent_layers",
            "doc_layers", "etc_layers", "max_sent_len", "max_doc_sents",
            "max_plan_len", "long_budget", "summary_budget", "global_cap",
            "local_radius", "relpos_vocab_size", "relpos_max_distance",
        ]
        payload = {k: getattr(self, k) for k in keys}
        payload["vocab_size"] = vocab_size
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# key -> (section, parser)
_SCHEMA: dict[str, tuple[str, type]] = {}
_SECTIONS = {
    "run": ["task", "encoder", "seed"],
    "model": [
        "dim", "num_heads", "ffn_dim", "sent_layers", "doc_layers",
        "etc_layers", "max_sent_len", "max_doc_sents", "max_plan_len",
        "long_budget", "summary_budget", "global_cap", "local_radius",
        "relpos_vocab_size", "relpos_max_distance", "init_std",
    ],
    "optimizer": ["learning_rate", "batch_size", "train_steps", "checkpoint_every"],
    "decode": ["beam_size", "max_steps", "no_repeat", "trigram_blocking"],
    "data": ["max_units"],
}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
for _section, _keys in _SECTIONS.items():
    for _k in _keys:
        _SCHEMA[_k] = (_section, _FIELD_TYPES[_k])


PRESETS: dict[str, dict] = {
    # sized for single-core minutes: full gradient checks and overfit runs
    "desk": {},
    # full-scale settings; layer counts follow the larger published variant
    # of the hierarchical model (8 sentence / 4 document layers)
    "paper": {
        "dim": 768,
        "num_heads": 12,
        "ffn_dim": 3072,
        "sent_layers": 8,
        "doc_layers": 4,
        "etc_layers": 12,
        "max_sent_len": 32,
        "max_doc_sents": 128,
        "max_plan_len": 16,
        "long_budget": 6141,
        "summary_budget": 2048,
        "global_cap": 512,
        "local_radius": 84,
        "relpos_vocab_size": 12,
        "relpos_max_distance": 4,
        "batch_size": 32,
        "train_steps": 100000,
        "checkpoint_every": 1000,
        "max_units": 512,
    },
}

# learning rates as published differ per encoder at paper scale
PAPER_LEARNING_RATES = {"hibert": 0.01, "etc": 0.000025}


def _parse_value(key: str, raw: str):
    typ = _FIELD_TYPES[key]
    raw = raw.strip()
    if typ == "bool" or typ is bool:
        if raw.lower() in ("true", "yes", "on", "1"):
            return True
        if raw.lower() in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if typ == "int" or typ is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if typ == "float" or typ is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    return raw


def config_from_dict(values: dict, preset: str = "desk") -> RunConfig:
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}")
    cfg = RunConfig()
    merged = dict(PRESETS[preset])
    merged.update(values)
    if preset == "paper" and "learning_rate" not in values:
        merged["learning_rate"] = PAPER_LEARNING_RATES[
            merged.get("encoder", cfg.encoder)
        ]
    for key, value in merged.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    preset = "desk"
    values: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if section == "run" and key == "preset":
                preset = raw.strip()
                continue
            if key not in _SCHEMA:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            expected_section, _ = _SCHEMA[key]
            if expected_section != section:
                raise ConfigError(
                    f"key {key!r} belongs in [{expected_section}], found in [{section}]"
                )
            values[key] = _parse_value(key, raw)
    return config_from_dict(values, preset)


def config_to_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)
