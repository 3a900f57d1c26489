"""stepsum benchmark: seeded pipeline workloads through the real commands.

Usage, from the repository root:

    python3 perfbench/run.py --workload docs-hibert --seed 1 --seconds 38 --trace 0

One run generates a workload's inputs from ``--seed``, sets up (imports
``stepsum``, builds and saves the decode checkpoint) several times, then runs
rounds of ``oracle -> train -> decode -> eval`` through ``stepsum.cli.main``
for about ``--seconds`` seconds, checking every output. With ``--trace 0`` it
reports the end-to-end metrics of ``BENCHMARK.json``, timed at the reference
speed of ``speed.py``; with ``--trace 1`` each round runs untraced and then
traced, the two must produce byte-identical outputs, and it reports the
per-layer metrics. The last stdout line is one JSON object; the line before
it is the run record (conditions, per-round times), which is also written
under ``.perfbench/``.
"""

from __future__ import annotations

import os

# One benchmark thread: BLAS and the oracle worker pool are pinned before
# numpy loads, which leaves the second core of a 2-core box for noise.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "STEPSUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import conditions  # noqa: E402
from speed import TASKS, SpeedProbe, pin_to_one_cpu  # noqa: E402
from workloads import WORKLOADS, Lexicon, write_round  # noqa: E402

SETUP_REPEATS = 11
# rounds checked but not timed: glibc malloc adapts its thresholds over the
# first two trains (table train: 200k, then 99k minor page faults, then none)
WARMUP_ROUNDS = 2
# seed 0 decodes full-length plans on every workload; seed 13, the desk
# configs' seed, ends about a third of document plans at once under hibert
MODEL_SEED = 0
VOCAB_ROWS = 3000   # the document lexicon's size; tables use far fewer tokens
OUT_DIR = os.path.join(ROOT, ".perfbench")
# pure-Python commands, timed against the probe's Python task alone
PYTHON_COMMANDS = {"oracle", "eval", "linearize"}


def setup_once(w, files, ckpt: str) -> tuple[float, float]:
    """Import stepsum afresh, then build and save the decode checkpoint.

    Returns the start and end of the timed span.

    The model is the public ``build_model`` at initialisation: a model
    trained for the few steps a run can afford decodes straight to the end
    marker, while initial weights give plans of full length (4 units for
    documents, 20 steps for tables). Its seed and its vocabulary size are
    fixed, so every workload seed decodes with the same weights; the
    vocabulary is the train split's tokens by frequency, padded with unused
    rows. With a per-seed model, one seed in five ended every table plan at
    once and table decode time spread tenfold across seeds.
    """
    for name in [m for m in sys.modules if m == "stepsum" or m.startswith("stepsum.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("stepsum.cli")
    config = importlib.import_module("stepsum.config")
    data = importlib.import_module("stepsum.data")
    models = importlib.import_module("stepsum.models")
    checkpoint = importlib.import_module("stepsum.checkpoint")
    rotowire = importlib.import_module("stepsum.rotowire")
    cfg = config.load_config(files.config)
    rows, errors = data.read_jsonl(files.train)
    if errors:
        raise ValueError(f"{files.train}: {errors[:2]}")
    if w.task == "cnndm":
        sentences = [s for r in rows for s in data.parse_document(r).sentences]
    else:
        games = [rotowire.parse_game(r) for r in rows]
        sentences = data.rotowire_corpus_sentences(games, cfg.max_units)
    tokens = data.Vocab.from_corpus(sentences).id_to_token[len(data.SPECIAL_TOKENS):]
    tokens = tokens[:VOCAB_ROWS] + [f"<unused{i}>" for i in range(VOCAB_ROWS - len(tokens))]
    vocab = data.Vocab(tokens)
    model = models.build_model(cfg, len(vocab), seed=MODEL_SEED)
    checkpoint.save_checkpoint(ckpt, model.named_parameters(), cfg, vocab.id_to_token)
    return t0, time.perf_counter()


def probe_tasks(command: str) -> tuple[str, ...]:
    return ("python",) if command in PYTHON_COMMANDS else tuple(TASKS)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    if n <= 10:
        return 50
    return max(50, min(99, (100 * (n - 10)) // n))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def end_to_end(w, rounds, setup: list[tuple[float, float]],
               probe: SpeedProbe) -> tuple[dict, dict]:
    """Timings pool every round after the warm-up rounds.

    Every timing is taken at the probe's reference speed (``speed.py``).
    Rates are work done over time spent; pooling the rounds weighs each by
    its length (oracle docs/s over five seeds, before speed normalisation:
    quartile spread 0.16 pooled, 0.36 as a median of per-round rates).
    """
    timed = rounds[WARMUP_ROUNDS:]

    def rate(units: int, name: str) -> float:
        runs = [c for r in timed for c in r.runs(name)]
        return units * len(runs) / sum(probe.seconds(c.start, c.end, probe_tasks(name))
                                      for c in runs)

    times = sorted(probe.seconds(*span) for r in timed for span in r.doc_spans)
    pct = tail_percentile(len(times))
    commands = [c for r in rounds for c in r.commands]
    attempted = sum(c.ops for c in commands)
    failed = sum(c.failed for c in commands)
    metrics = {
        "setup_s": statistics.median(probe.seconds(*span) for span in setup),
        "oracle_docs_per_s": rate(w.oracle_docs, "oracle"),
        "train_steps_per_s": rate(w.train_steps, "train"),
        # round 0 always runs, on inputs fixed by the seed alone
        "valid_loss": float(rounds[0].valid_loss),
        "decode_docs_per_s": rate(w.decode_docs, "decode"),
        "decode_doc_ms_p50": nearest_rank(times, 50) * 1e3,
        "decode_doc_ms_tail": nearest_rank(times, pct) * 1e3,
        "eval_docs_per_s": rate(w.decode_docs, "eval"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "completed_ops_share": (attempted - failed) / attempted,
    }
    notes = {"decode_tail_percentile": pct, "decode_samples": len(times),
             "timed_rounds": len(timed),
             "eval_repeats": [len(r.runs("eval")) for r in rounds],
             "attempted": attempted, "failed": failed}
    return metrics, notes


def measure(args, w, files, ckpt, work, lexicon, setup, probe,
            record) -> tuple[dict, int, int]:
    """Run rounds for about ``args.seconds``; returns (metrics, attempted, failed)."""
    # imported only now, so they bind the modules the last set-up loaded
    import pipeline
    import tracer as tracing
    from stepsum.attention import score_counter

    clock = None if args.trace else pipeline.DocClock()
    tracer = tracing.Tracer() if args.trace else None
    entries: Counter = Counter()
    rounds, traced = [], []
    t_start = time.perf_counter()
    def traced_round(files, out_dir: str):
        before = Counter(score_counter.counts)
        tracer.install()
        try:
            return pipeline.run_round(w, files, ckpt, out_dir, clock=None, eval_min_s=0.0)
        finally:
            tracer.uninstall()
            entries.update(Counter(score_counter.counts) - before)

    while True:
        k = len(rounds)
        if k:
            files = write_round(w, args.seed, k, os.path.join(work, f"r{k}", "in"), lexicon)
        plain_dir = os.path.join(work, f"r{k}", "plain")
        if tracer is None:
            rounds.append(pipeline.run_round(w, files, ckpt, plain_dir, clock=clock,
                                             eval_min_s=pipeline.EVAL_MIN_S))
        else:
            # alternate which pass goes first, so warm-up favours neither
            traced_dir = os.path.join(work, f"r{k}", "traced")
            if k % 2:
                tres = traced_round(files, traced_dir)
            res = pipeline.run_round(w, files, ckpt, plain_dir, clock=None, eval_min_s=0.0)
            if not k % 2:
                tres = traced_round(files, traced_dir)
            for key, data in res.outputs.items():
                if tres.outputs[key] != data:
                    raise pipeline.CheckFailed(f"traced {key} output differs")
            if tres.valid_loss != res.valid_loss:
                raise pipeline.CheckFailed("traced valid_loss differs")
            rounds.append(res)
            traced.append(tres)
        elapsed = time.perf_counter() - t_start
        # per-layer figures are per traced round and need no warm-up
        min_rounds = 1 if tracer else WARMUP_ROUNDS + 1
        if len(rounds) >= min_rounds and elapsed + elapsed / len(rounds) > args.seconds:
            break
    record["rounds"] = [{c.name: [x.seconds for x in r.runs(c.name)] for c in r.commands}
                        | {"valid_loss": r.valid_loss} for r in rounds]

    if tracer is None:
        record["stolen"] = [{c.name: [probe.stolen(x.start, x.end) for x in r.runs(c.name)]
                             for c in r.commands} for r in rounds]
        record["slowdown"] = [
            {c.name: [probe.slowdown(x.start, x.end, probe_tasks(c.name))
                      for x in r.runs(c.name)] for c in r.commands}
            for r in rounds]
        metrics, notes = end_to_end(w, rounds, setup, probe)
        record.update(notes)
        return metrics, notes["attempted"], notes["failed"]
    metrics = tracer.layer_metrics(entries, len(traced))
    metrics.update(tracing.attention_sweep(args.seed))
    plain_s = sum(r.command_seconds for r in rounds)
    traced_s = sum(r.command_seconds for r in traced)
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    tracer.write(os.path.join(OUT_DIR, f"{w.name}.spans.jsonl"))
    commands = [c for r in rounds + traced for c in r.commands]
    return metrics, sum(c.ops for c in commands), sum(c.failed for c in commands)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    import numpy  # noqa: F401  (loads BLAS under the pinned thread count)

    w = WORKLOADS[args.workload]
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    record: dict = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "machine": conditions.machine(ROOT),
                    "before": conditions.snapshot()}
    try:
        lexicon = Lexicon(args.seed) if w.task == "cnndm" else None
        files = write_round(w, args.seed, 0, os.path.join(work, "r0", "in"), lexicon)
        ckpt = os.path.join(work, "ckpt")
        # the probe samples set-up and, in untraced runs, every round
        record["cpu"] = cpu = pin_to_one_cpu()
        probe = SpeedProbe(cpu)
        probe.start()
        try:
            setup = [setup_once(w, files, ckpt) for _ in range(SETUP_REPEATS)]
            if args.trace:
                probe.stop()
            record["setup_s"] = [t1 - t0 for t0, t1 in setup]

            import pipeline

            try:
                metrics, attempted, failed = measure(args, w, files, ckpt, work, lexicon,
                                                     setup, probe, record)
            except pipeline.CheckFailed as e:
                print(f"check failed: {e}", file=sys.stderr)
                print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                                  "metrics": {}}))
                return 1
        finally:
            probe.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["after"] = conditions.snapshot()
    record["metrics"] = metrics
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    with open(os.path.join(OUT_DIR, f"{w.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("run-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
