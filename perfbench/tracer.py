"""Outside-in tracing: spans at the public-function boundaries of stepsum.

Wrappers are installed from here, never inside ``src/stepsum``. A wrapper
replaces the original in every stepsum namespace that bound it (``cli``
imports ``oracle_full`` and ``beam_decode``, ``oracle`` imports
``mean_rouge_f1``, ``hibert`` and ``etc_encoder`` import the attention
functions), and on the class for methods. Spans are kept in memory as
``[name, start, end, parent, doc]`` and written out when the run ends, with
self time computed per span. Wrappers only observe; they never change an
argument or a result.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

OP_LABELS = ("matmul", "narrow", "concat", "transpose")


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.doc: str | None = None
        self.counts: Counter = Counter()
        self.prefixes: set = set()
        self._doc_of_sentences: dict[int, str] = {}
        self._scorer_serial = 0
        self._in_step = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.doc])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_function(self, module, attr: str, name: str, before=None, after=None,
                        wrapper=None) -> None:
        original = getattr(module, attr)
        if wrapper is None:
            wrapper = self._wrap(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stepsum" or mod_name.startswith("stepsum.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, before, after))

    # -- hooks ----------------------------------------------------------------

    def _set_doc(self, doc_id) -> None:
        self.doc = None if doc_id is None else str(doc_id)

    def install(self) -> None:
        from stepsum import (attention, autodiff, checkpoint, cli, data, decoding,
                             etc_encoder, hibert, metrics, models, oracle, rotowire,
                             training)

        c = self.counts
        fn = self._patch_function
        meth = self._patch_method

        def command_start(_args):
            # document ids are tracked per command; ids of freed objects recur
            self._doc_of_sentences.clear()
            self.doc = None

        for cmd in ("oracle", "train", "decode", "eval", "linearize"):
            fn(cli, f"cmd_{cmd}", f"cli.{cmd}", before=command_start)

        def remember_doc(_args, doc):
            self._doc_of_sentences[id(doc.sentences)] = doc.doc_id

        fn(data, "read_jsonl", "data.read_jsonl")
        fn(data, "write_jsonl", "data.write_jsonl")
        fn(data, "parse_document", "data.parse_document", after=remember_doc)
        fn(data, "prepare_cnndm", "data.prepare_cnndm",
           before=lambda a: self._set_doc(a[0].doc_id))
        fn(data, "prepare_rotowire", "data.prepare_rotowire",
           before=lambda a: self._set_doc(a[0].game_id))
        fn(rotowire, "parse_game", "rotowire.parse_game",
           after=lambda a, g: c.update({"rotowire.warnings": len(g.warnings)}))
        fn(rotowire, "templated_units", "rotowire.templated_units")

        def oracle_doc(args):
            doc = self._doc_of_sentences.get(id(args[0]))
            if doc is not None:
                self.doc = doc

        fn(oracle, "oracle_full", "oracle.oracle_full", before=oracle_doc)
        for name in ("mean_rouge_f1", "rouge_n", "rouge_l", "cs_scores", "co_score"):
            fn(metrics, name, f"metrics.{name}")

        def trimmed(args, result):
            c["models.units_trimmed"] += args[0].n_real_units - result.n_real_units

        def step_enter(_args):
            self._in_step += 1

        fn(models, "build_model", "models.build_model")
        fn(models, "trim_for_flat_budget", "models.trim_for_flat_budget", after=trimmed)
        fn(models, "batch_mean_loss", "models.batch_mean_loss", before=step_enter,
           after=lambda a, r: setattr(self, "_in_step", self._in_step - 1))

        def scorer_init(args):
            self._scorer_serial += 1
            self._set_doc(args[4].doc_id)

        def scorer_call(args):
            self.prefixes.add((self._scorer_serial, args[1]))

        meth(models.ModelStepScorer, "__init__", "models.scorer_init", before=scorer_init)
        meth(models.ModelStepScorer, "step_log_probs", "models.step_log_probs",
             before=scorer_call)

        def tape_size(args):
            c["autodiff.tape_nodes"] += len(args[0].nodes)

        fn(autodiff, "backward", "autodiff.backward", before=tape_size)
        meth(autodiff.Adam, "step", "autodiff.adam_step")

        apply_op = autodiff.apply_op

        def counting_apply_op(out_data, inputs, backward, *, what):
            if self._in_step:
                c["autodiff.ops." + what] += 1
            return apply_op(out_data, inputs, backward, what=what)

        fn(autodiff, "apply_op", "", wrapper=counting_apply_op)

        fn(attention, "multi_head_attention", "attention.dense")
        fn(attention, "glocal_attention", "attention.glocal")
        fn(attention, "feed_forward", "attention.ffn")
        fn(attention, "etc_global_local_attention", "attention.etc_layer")
        meth(hibert.StepwiseHibert, "encode_sentences", "hibert.encode_sentences")
        meth(hibert.StepwiseHibert, "encode_document_stepwise", "hibert.encode_document")
        meth(etc_encoder.StepwiseEtc, "etc_encode", "etc_encoder.etc_encode")

        def assembled(_args, asm):
            c["etc_encoder.long_tokens"] += int(asm.active.sum())
            c["etc_encoder.assembly_warnings"] += len(asm.warnings)

        fn(etc_encoder, "assemble_input", "etc_encoder.assemble_input", after=assembled)

        fn(decoding, "beam_decode", "decoding.beam_decode",
           after=lambda a, r: c.update({"decoding.incomplete": int(r.incomplete)}))
        fn(decoding, "greedy_rollout", "decoding.greedy_rollout")
        fn(decoding, "greedy_decode_with_repeat_exceptions", "decoding.greedy_table")

        fn(training, "train", "training.train")
        fn(training, "evaluate_loss", "training.evaluate_loss")

        def saved(args, _result):
            c["checkpoint.bytes"] += _dir_bytes(args[0])

        fn(checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", after=saved)
        fn(checkpoint, "load_checkpoint", "checkpoint.load_checkpoint")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.doc = None

    # -- results ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, self_s) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({"id": i, "name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "doc": s[4], "self_s": self_s})
                         + "\n")

    def summary(self) -> tuple[dict, dict, dict]:
        """Per span name: (count, inclusive seconds, self seconds)."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for s, self_s in zip(self.spans, self.self_times()):
            calls[s[0]] += 1
            total[s[0]] += s[2] - s[1]
            own[s[0]] += self_s
        return calls, total, own

    def layer_metrics(self, entries: dict[str, int], rounds: int) -> dict[str, float]:
        """Per-layer metrics, named ``<module>.<what>``, per traced round.

        Times and counts are divided by ``rounds`` (every round does the same
        amount of work); ratios and per-step counts are left as they are.
        """
        calls, total, own = self.summary()
        c = self.counts
        steps = calls["models.batch_mean_loss"]
        backward_calls = calls["autodiff.backward"]
        ops_total = sum(v for k, v in c.items() if k.startswith("autodiff.ops."))
        scorer_calls = calls["models.step_log_probs"]

        prep = 0.0
        for s in self.spans:
            if s[0] == "training.train" and s[3] >= 0:
                prep += s[1] - self.spans[s[3]][1]

        m = {
            "oracle.calls": calls["oracle.oracle_full"],
            "oracle.self_s": own["oracle.oracle_full"],
            "oracle.score_evals": calls["metrics.mean_rouge_f1"],
            "metrics.rouge_l_s": total["metrics.rouge_l"],
            "metrics.rouge_n_s": total["metrics.rouge_n"],
            "metrics.plan_s": total["metrics.cs_scores"] + total["metrics.co_score"],
            "models.batch_loss_s": total["models.batch_mean_loss"],
            "autodiff.backward_s": total["autodiff.backward"],
            "autodiff.adam_s": total["autodiff.adam_step"],
            "autodiff.tape_nodes_per_step":
                c["autodiff.tape_nodes"] / backward_calls if backward_calls else 0.0,
            "autodiff.ops_total": ops_total / steps if steps else 0.0,
        }
        for label in OP_LABELS:
            m[f"autodiff.ops.{label}"] = c["autodiff.ops." + label] / steps if steps else 0.0
        m.update({
            "attention.dense_s": total["attention.dense"],
            "attention.glocal_s": total["attention.glocal"],
            "attention.ffn_s": total["attention.ffn"],
        })
        for part in ("dense", "long_to_long", "long_to_global", "global"):
            m[f"attention.entries.{part}"] = entries.get(part, 0)
        m.update({
            "hibert.sentence_s": total["hibert.encode_sentences"],
            "hibert.sentence_calls": calls["hibert.encode_sentences"],
            "hibert.document_s": total["hibert.encode_document"],
            "etc_encoder.encode_s": total["etc_encoder.etc_encode"],
            "etc_encoder.assemble_s": total["etc_encoder.assemble_input"],
            "etc_encoder.long_tokens": c["etc_encoder.long_tokens"],
            "etc_encoder.assembly_warnings": c["etc_encoder.assembly_warnings"],
            "models.scorer_calls": scorer_calls,
            "models.distinct_prefix_share":
                len(self.prefixes) / scorer_calls if scorer_calls else 0.0,
            "models.scorer_s": total["models.step_log_probs"],
            "models.units_trimmed": c["models.units_trimmed"],
            "decoding.search_self_s": own["decoding.beam_decode"]
            + own["decoding.greedy_table"],
            "decoding.greedy_floor_s": total["decoding.greedy_rollout"],
            "decoding.incomplete": c["decoding.incomplete"],
            "training.prep_s": prep,
            "training.validation_s": total["training.evaluate_loss"],
            "checkpoint.saves": calls["checkpoint.save_checkpoint"],
            "checkpoint.save_s": total["checkpoint.save_checkpoint"],
            "checkpoint.bytes": c["checkpoint.bytes"],
            "checkpoint.load_s": total["checkpoint.load_checkpoint"],
            "data.read_s": total["data.read_jsonl"],
            "data.write_s": total["data.write_jsonl"],
            "rotowire.parse_s": total["rotowire.parse_game"],
            "rotowire.template_s": total["rotowire.templated_units"],
            "rotowire.warnings": c["rotowire.warnings"],
        })
        for cmd in ("oracle", "train", "decode", "eval", "linearize"):
            m[f"cli.{cmd}_s"] = total[f"cli.{cmd}"]
        m["trace.spans"] = len(self.spans)
        ratios = ("_per_step", "_share", "autodiff.ops")
        return {k: v if any(r in k for r in ratios) else v / rounds for k, v in m.items()}


# ---------------------------------------------------------------------------
# global-local attention sweep
# ---------------------------------------------------------------------------

SWEEP_LENGTHS = (128, 256, 512, 1024)
SWEEP_GLOBALS = 16
SWEEP_REPEATS = 5


def attention_sweep(seed: int) -> dict[str, float]:
    """Time one global-local layer at a fixed radius over several lengths.

    Uses the desk model shape (dim 64, 2 heads, radius 8). Each length's time
    is the median of a few forward passes; ``glocal_ns_per_entry`` divides
    the summed times by the summed score entries of all four parts, and the
    exact ``long_to_long`` count stands next to each length's time.
    """
    import numpy as np

    from stepsum.attention import (AttentionConfig, etc_global_local_attention,
                                   init_glocal_layer, score_counter)
    from stepsum.autodiff import Tensor
    from stepsum.config import RunConfig

    desk = RunConfig()
    cfg = AttentionConfig(num_heads=desk.num_heads, model_dim=desk.dim,
                          local_radius=desk.local_radius,
                          relpos_vocab_size=desk.relpos_vocab_size,
                          max_distance=desk.relpos_max_distance)
    rng = np.random.default_rng(seed)
    params = init_glocal_layer(rng, cfg, desk.ffn_dim, desk.init_std)
    out: dict[str, float] = {}
    total_s = 0.0
    total_entries = 0
    for length in SWEEP_LENGTHS:
        long = Tensor(rng.normal(size=(length, desk.dim)))
        glob = Tensor(rng.normal(size=(SWEEP_GLOBALS, desk.dim)))
        sentence_id = np.minimum(np.arange(length) // 16, SWEEP_GLOBALS - 1)
        times = []
        for _ in range(SWEEP_REPEATS):
            before = dict(score_counter.counts)
            t0 = time.perf_counter()
            etc_global_local_attention(long, glob, sentence_id, params, cfg)
            times.append(time.perf_counter() - t0)
            delta = {k: v - before.get(k, 0) for k, v in score_counter.counts.items()}
        median = sorted(times)[len(times) // 2]
        entries = sum(delta.values())
        total_s += median
        total_entries += entries
        out[f"attention.sweep.L{length}_ms"] = median * 1e3
        out[f"attention.sweep.L{length}_long_to_long"] = delta.get("long_to_long", 0)
    out["attention.glocal_ns_per_entry"] = (
        total_s * 1e9 / total_entries if total_entries else math.nan)
    return out
