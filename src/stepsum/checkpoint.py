"""Checkpoints: a JSON manifest plus a concatenated float64 payload.

A checkpoint directory holds ``manifest.json`` (format version, config hash,
the architecture config, the vocabulary, and a named-tensor directory with
shapes and byte offsets) and ``params.bin`` (little-endian 64-bit floats in
manifest order). Each file is written to a temporary file in the directory
and renamed over the old one, so a failed or interrupted save leaves the
previous checkpoint loadable. Each file reaches the disk before its rename,
and each rename before the next write, so a crash of the machine leaves
the same guarantee as a crash of the process. Loading verifies the config
hash and that the tensor directory tiles the payload; a mismatch is a hard
error rather than a silent shape coercion.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .config import RunConfig, config_from_dict, config_to_dict

FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "params.bin"


class CheckpointError(ValueError):
    pass


@dataclass
class Manifest:
    config: RunConfig
    config_hash: str
    vocab: list[str]


def save_checkpoint(path: str, named_params: dict[str, Tensor],
                    config: RunConfig, vocab: list[str]) -> None:
    os.makedirs(path, exist_ok=True)
    tensors, offset = [], 0
    for name, param in named_params.items():
        tensors.append({"name": name, "shape": list(param.shape), "offset": offset,
                        "size": param.size})
        offset += 8 * param.size
    payload = (np.ascontiguousarray(p.data, dtype="<f8") for p in named_params.values())
    manifest = {
        "format_version": FORMAT_VERSION,
        "config_hash": config.arch_hash(len(vocab)),
        "config": config_to_dict(config),
        "vocab": vocab,
        "tensors": tensors,
    }
    # Payload first, tensor by tensor: every save of one run writes the same
    # manifest, so a crash between the two replaces still leaves a matching pair.
    for name, blobs in ((PAYLOAD_NAME, payload),
                        (MANIFEST_NAME, [json.dumps(manifest, sort_keys=True,
                                                    separators=(",", ":")).encode()])):
        tmp = os.path.join(path, f"{name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                for blob in blobs:
                    fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, os.path.join(path, name))
            _fsync_dir(path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


def _fsync_dir(path: str) -> None:
    """Make a rename in ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_checkpoint(path: str) -> tuple[Manifest, dict[str, np.ndarray]]:
    """The manifest and each tensor by name, as read-only views of one
    payload buffer; ``restore_params`` copies them into a model."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    payload_path = os.path.join(path, PAYLOAD_NAME)
    if not os.path.exists(manifest_path) or not os.path.exists(payload_path):
        raise CheckpointError(f"{path} is not a checkpoint directory")
    with open(manifest_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        if raw.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint format {raw.get('format_version')}")
        config = config_from_dict(raw["config"])
        vocab = raw["vocab"]
        if not isinstance(vocab, list) or not all(isinstance(t, str) for t in vocab):
            raise TypeError("vocab is not a list of strings")
        if raw["config_hash"] != config.arch_hash(len(vocab)):
            raise CheckpointError("checkpoint config hash does not match its config")
        with open(payload_path, "rb") as fh:
            blob = fh.read()
        want = 8 * sum(entry["size"] for entry in raw["tensors"])
        if len(blob) != want:
            raise CheckpointError(f"{payload_path} holds {len(blob)} bytes, "
                                  f"its manifest lists {want}")
        payload = np.frombuffer(blob, dtype="<f8")
        arrays: dict[str, np.ndarray] = {}
        start = 0
        for entry in raw["tensors"]:
            name, shape, size = entry["name"], entry["shape"], entry["size"]
            if (entry["offset"] != 8 * start or min(shape, default=0) < 0
                    or math.prod(shape) != size):
                raise CheckpointError(f"{manifest_path}: tensor {name} (offset {entry['offset']}, "
                                      f"shape {shape}, size {size}) does not tile the payload")
            arrays[name] = payload[start: start + size].reshape(shape)
            start += size
        return Manifest(config, raw["config_hash"], vocab), arrays
    except (AttributeError, KeyError, TypeError) as e:
        raise CheckpointError(f"{manifest_path}: missing or mistyped field ({e!r})") from None


def restore_params(named_params: dict[str, Tensor],
                   arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into live parameters, verifying the name set."""
    missing = sorted(set(named_params) - set(arrays))
    extra = sorted(set(arrays) - set(named_params))
    if missing or extra:
        raise CheckpointError(f"parameter names disagree; missing={missing[:3]} extra={extra[:3]}")
    for name, param in named_params.items():
        arr = arrays[name]
        if tuple(arr.shape) != param.shape:
            raise CheckpointError(f"{name}: checkpoint shape {arr.shape} != model shape "
                                  f"{param.shape}")
        param.data[...] = arr


def verify_config_match(manifest: Manifest, config: RunConfig) -> None:
    """Hard error when a run config disagrees with a checkpoint's config."""
    if manifest.config_hash != config.arch_hash(len(manifest.vocab)):
        raise CheckpointError(
            "run config does not match the checkpoint config (hash mismatch)"
        )
