"""Deterministic minibatch training with validation-loss model selection."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .autodiff import (
    Adam,
    NonFiniteError,
    Tape,
    backward,
    cross_entropy,
)
from .checkpoint import save_checkpoint
from .config import RunConfig
from .data import StepExample, Vocab
from .models import Model, batch_mean_loss, score_pairs


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainResult:
    steps_run: int
    best_step: int
    best_valid_loss: float
    history: list[tuple[int, float, float]] = field(default_factory=list)


def _chunk_logits(model: Model, cfg: RunConfig, vocab: Vocab,
                  examples: Sequence[StepExample]):
    """(example, its chunk's logits, its span in them), ``cfg.batch_size`` at a time.

    The chunks of one pass share one cache, since no parameter changes
    within it, so a document's prefix-independent part is computed once
    per pass.
    """
    cache: dict = {}
    for start in range(0, len(examples), cfg.batch_size):
        chunk = examples[start: start + cfg.batch_size]
        logits, spans = score_pairs(model, cfg, vocab,
                                    [(ex.doc, ex.prefix) for ex in chunk], cache)
        yield from ((ex, logits, span) for ex, span in zip(chunk, spans))


def evaluate_loss(model: Model, cfg: RunConfig, vocab: Vocab,
                  examples: Sequence[StepExample]) -> float:
    total = 0.0
    for ex, logits, span in _chunk_logits(model, cfg, vocab, examples):
        total += cross_entropy(logits, [ex.target], [span]).item()
    return total / max(len(examples), 1)


def next_step_accuracy(model: Model, cfg: RunConfig, vocab: Vocab,
                       examples: Sequence[StepExample]) -> float:
    hits = sum(int(np.argmax(logits.data[s:s + n])) == ex.target
               for ex, logits, (s, n) in _chunk_logits(model, cfg, vocab, examples))
    return hits / max(len(examples), 1)


def train(cfg: RunConfig, model: Model, vocab: Vocab,
          train_examples: Sequence[StepExample],
          valid_examples: Sequence[StepExample],
          out_dir: str | None = None,
          stop_check: Callable[[Model, int], bool] | None = None,
          log: Callable[[str], None] | None = None) -> TrainResult:
    """Adam over shuffled minibatches; keeps the best-by-validation checkpoint.

    Shuffling is a seeded permutation re-drawn per epoch, so two runs with
    the same config and data produce identical loss curves. A non-finite
    loss or update aborts the run with the last written checkpoint intact.
    ``stop_check`` runs at every evaluation point and may end training early
    (used by overfitting experiments once their target accuracy is reached).
    """
    for kind, examples in (("training", train_examples), ("validation", valid_examples)):
        if not examples:
            raise ValueError(f"no {kind} examples")
    rng = np.random.default_rng(cfg.seed)
    params = model.named_parameters()
    optimizer = Adam(params, cfg.learning_rate)

    order = rng.permutation(len(train_examples))
    cursor = 0
    best_step = 0
    best_valid = float("inf")
    history: list[tuple[int, float, float]] = []
    running_loss = 0.0

    last_dir = os.path.join(out_dir, "last") if out_dir else None
    best_dir = os.path.join(out_dir, "best") if out_dir else None
    if last_dir:
        # a divergence abort must always leave a loadable state behind
        save_checkpoint(last_dir, params, cfg, vocab.id_to_token)

    step = 0
    try:
        for step in range(1, cfg.train_steps + 1):
            batch = []
            for _ in range(cfg.batch_size):
                if cursor >= len(order):
                    order = rng.permutation(len(train_examples))
                    cursor = 0
                batch.append(train_examples[int(order[cursor])])
                cursor += 1

            with Tape() as tape:
                loss = batch_mean_loss(model, cfg, vocab, batch)
                # freed after the forward, so glibc does not return the heap
                # top to the kernel and fault it back in every step
                optimizer.zero_grad()
                backward(tape, loss)
            running_loss += loss.item()
            optimizer.step()

            if step % cfg.checkpoint_every == 0 or step == cfg.train_steps:
                # the mean over the steps since the last check
                train_loss = running_loss / ((step - 1) % cfg.checkpoint_every + 1)
                running_loss = 0.0
                valid_loss = evaluate_loss(model, cfg, vocab, valid_examples)
                history.append((step, train_loss, valid_loss))
                if log:
                    log(f"step {step}: train {train_loss:.4f} valid {valid_loss:.4f}")
                if last_dir:
                    save_checkpoint(last_dir, params, cfg, vocab.id_to_token)
                if valid_loss < best_valid:
                    best_valid = valid_loss
                    best_step = step
                    if best_dir:
                        save_checkpoint(best_dir, params, cfg, vocab.id_to_token)
                if stop_check is not None and stop_check(model, step):
                    break
    except NonFiniteError as e:
        raise TrainingDiverged(
            f"non-finite loss or update at step {step}; "
            f"last checkpoint retained"
        ) from e

    return TrainResult(step, best_step, best_valid, history)
