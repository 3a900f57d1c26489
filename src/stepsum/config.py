"""Run configuration: presets, file parsing, validation, and hashing.

Config files are INI-style text (sections of ``key = value`` lines). A
``preset`` key in [run] picks the base values (``desk`` by default, sized so
gradient checks and overfit runs finish in minutes on one core; ``paper``
carries the full-scale hyperparameters); every other key overrides the
preset. Unknown keys are rejected outright. ``RunConfig`` is the only
model config: both encoders read it directly. Each key is declared once
there, with its section and whether it fixes the architecture or must be
positive; the file schema, ``validate`` and ``arch_hash`` read those flags.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

from .attention import AttentionConfig


class ConfigError(ValueError):
    pass


# the sections of a config file, in the order RunConfig declares their keys
SECTIONS = ("run", "model", "optimizer", "decode", "data")


def _key(section: str, default, *, arch: bool = False, positive: bool = False):
    """A config key: its file section, its default, whether it fixes parameter
    shapes or wiring (``arch_hash``), and whether it must be at least 1."""
    return field(default=default,
                 metadata={"section": section, "arch": arch, "positive": positive})


@dataclass
class RunConfig:
    task: str = _key("run", "cnndm", arch=True)       # cnndm | rotowire
    encoder: str = _key("run", "etc", arch=True)      # hibert | etc
    seed: int = _key("run", 13)
    dim: int = _key("model", 64, arch=True, positive=True)
    num_heads: int = _key("model", 2, arch=True, positive=True)
    ffn_dim: int = _key("model", 256, arch=True, positive=True)
    sent_layers: int = _key("model", 2, arch=True, positive=True)
    doc_layers: int = _key("model", 2, arch=True, positive=True)
    etc_layers: int = _key("model", 2, arch=True, positive=True)
    max_sent_len: int = _key("model", 16, arch=True, positive=True)
    max_doc_sents: int = _key("model", 48, arch=True, positive=True)
    max_plan_len: int = _key("model", 8, arch=True, positive=True)
    long_budget: int = _key("model", 381, arch=True, positive=True)
    summary_budget: int = _key("model", 126, arch=True, positive=True)
    global_cap: int = _key("model", 64, arch=True, positive=True)
    local_radius: int = _key("model", 8, arch=True)
    relpos_vocab_size: int = _key("model", 24, arch=True)
    relpos_max_distance: int = _key("model", 10, arch=True)
    init_std: float = _key("model", 0.02)
    learning_rate: float = _key("optimizer", 1e-3)
    batch_size: int = _key("optimizer", 8, positive=True)
    train_steps: int = _key("optimizer", 5000, positive=True)
    checkpoint_every: int = _key("optimizer", 200, positive=True)
    beam_size: int = _key("decode", 3, positive=True)
    max_steps: int = _key("decode", 4, positive=True)
    no_repeat: bool = _key("decode", True)
    trigram_blocking: bool = _key("decode", False)
    max_units: int = _key("data", 46, positive=True)

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
        for f in fields(self):
            if f.metadata["positive"] and getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be positive")
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
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.metadata["arch"]}
        payload["vocab_size"] = vocab_size
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# key -> its declaration; under the annotations import, each type is its name
_KEYS = {f.name: f for f in fields(RunConfig)}


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
    typ = _KEYS[key].type
    raw = raw.strip()
    if typ == "bool":
        if raw.lower() in ("true", "yes", "on", "1"):
            return True
        if raw.lower() in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if typ == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if typ == "float":
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
        if key not in _KEYS:
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
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if section == "run" and key == "preset":
                preset = raw.strip()
                continue
            if key not in _KEYS:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            expected_section = _KEYS[key].metadata["section"]
            if expected_section != section:
                raise ConfigError(
                    f"key {key!r} belongs in [{expected_section}], found in [{section}]"
                )
            values[key] = _parse_value(key, raw)
    return config_from_dict(values, preset)


def config_to_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)
