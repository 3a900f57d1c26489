"""Shared implementations of the release criteria.

Each criterion function returns (ok, detail). The fast ones run both from
the test suite and from the ``selfcheck`` command; the training-based and
process-level checks live in the test suite only. Test oracles here
(exhaustive plan search, recursive edit-script search) are deliberately
written from the definitions, independent of the production code paths they
verify.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from . import autodiff as ad
from .attention import (
    AttentionConfig,
    Segments,
    band_pattern,
    banded_pair_count,
    bucket_matrix,
    dense_attention,
    etc_global_local_attention,
    global_attention,
    glocal_attention,
    init_glocal_layer,
    init_mha,
    long_attention,
    multi_head_attention,
    score_counter,
)
from .autodiff import Tape, Tensor, backward, cross_entropy
from .config import config_from_dict
from .decoding import (
    REPEAT_EXEMPT_TYPES,
    DecodeConstraints,
    StepScorer,
    beam_decode,
    greedy_rollout,
)
from .etc_encoder import StepwiseEtc, assemble_input
from .gradcheck import check_gradients
from .hibert import StepwiseHibert
from .metrics import (
    _lcs_length,
    co_score,
    cs_scores,
    dld,
    mean_rouge_f1,
    rouge_l,
    rouge_n,
)
from .oracle import brute_force_oracle, oracle_full
from .plan import END_STEP, PlanStep, RecordRef, unit_step
from .rotowire import (
    linearize_plan,
    parse_game,
    plan_stats,
    rank_records,
    templated_sentence,
)

MASKED_OK = 1e-12


# ---------------------------------------------------------------------------
# toy fixtures
# ---------------------------------------------------------------------------


def toy_hibert(seed: int = 5) -> tuple[StepwiseHibert, list[list[int]]]:
    """The standard gradient-check fixture: 4 sentences of 6 tokens plus stop."""
    cfg = config_from_dict({"encoder": "hibert", "dim": 16, "num_heads": 2, "ffn_dim": 32,
                            "sent_layers": 2, "doc_layers": 2, "max_sent_len": 6,
                            "max_doc_sents": 8, "max_plan_len": 4, "max_steps": 3})
    rng = np.random.default_rng(seed)
    units = [[2]] + [[int(t) for t in rng.integers(3, 50, size=6)]
                     for _ in range(4)]
    return StepwiseHibert(cfg, 50, rng), units


def toy_etc(seed: int = 6) -> tuple[StepwiseEtc, list]:
    """A two-layer flat model and two pairs of different documents.

    The second document is shorter and its prefix holds two plan sentences,
    so the two assemblies differ in rows, globals and candidates.
    """
    cfg = config_from_dict({"encoder": "etc", "dim": 16, "num_heads": 2, "ffn_dim": 32,
                            "etc_layers": 2, "long_budget": 40, "summary_budget": 16,
                            "global_cap": 16, "local_radius": 3, "relpos_vocab_size": 12,
                            "relpos_max_distance": 4})
    rng = np.random.default_rng(seed)
    doc_units = [[int(t) for t in rng.integers(7, 50, size=6)] for _ in range(4)]
    short_units = [[int(t) for t in rng.integers(7, 50, size=4)] for _ in range(2)]
    model = StepwiseEtc(cfg, 50, rng)
    layout = dict(long_budget=cfg.long_budget, summary_budget=cfg.summary_budget,
                  global_cap=cfg.global_cap, cls_id=5, sep_id=6, beg_id=4, eos_id=3)
    assemblies = [assemble_input(doc_units, [doc_units[1]], [[2]], 1, **layout),
                  assemble_input(short_units, [short_units[0], [3], short_units[1]], [[2]],
                                 1, **layout)]
    return model, assemblies


def table3_game() -> dict:
    """The hypothetical Bulls/Lakers game used for formatting fidelity."""
    return {
        "id": "table3",
        "date": "Saturday, 22nd October 2018",
        "home": {
            "key": "Chicago_Bulls", "name": "Bulls", "city": "Chicago",
            "stats": {"TEAM-WINS": "3", "TEAM-LOSSES": "1", "TEAM-PTS": "100",
                      "TEAM-REB": "21"},
        },
        "visitor": {
            "key": "LA_Lakers", "name": "Lakers", "city": "Los_Angeles",
            "stats": {"TEAM-WINS": "2", "TEAM-LOSSES": "5", "TEAM-PTS": "80",
                      "TEAM-REB": "25"},
        },
        "players": [
            {"key": "Michael_Jordan", "first_name": "Michael",
             "second_name": "Jordan", "team": "home",
             "stats": {"PLAYER-PTS": "25", "PLAYER-REB": "10",
                       "PLAYER-AST": "10"}},
            {"key": "Shaquille_O'Neal", "first_name": "Shaquille",
             "second_name": "O'Neal", "team": "visitor",
             "stats": {"PLAYER-PTS": "30", "PLAYER-REB": "15",
                       "PLAYER-AST": "11"}},
        ],
    }


# ---------------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------------


def _op_cases(seed: int):
    """(name, leaf params, loss function) per differentiable op."""
    rng = np.random.default_rng(seed)

    def t(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    cases = []

    a, b = t(3, 4), t(3, 4)
    cases.append(("add", {"a": a, "b": b},
                  lambda: ad.sum_all(ad.mul(ad.add(a, b), a))))
    a2, b2 = t(3, 4), t(4)
    cases.append(("add_bias", {"a": a2, "b": b2},
                  lambda: ad.sum_all(ad.mul(ad.add(a2, b2), ad.add(a2, b2)))))
    a3, b3 = t(2, 3), t(2, 3)
    cases.append(("sub_mul", {"a": a3, "b": b3},
                  lambda: ad.sum_all(ad.mul(ad.sub(a3, b3), a3))))
    m1, m2 = t(4, 5), t(5, 3)
    cases.append(("matmul", {"a": m1, "b": m2},
                  lambda: ad.sum_all(ad.mul(ad.matmul(m1, m2), ad.matmul(m1, m2)))))
    mb1, mb2 = t(2, 3, 4), t(4, 3)
    cases.append(("matmul_batched", {"a": mb1, "b": mb2},
                  lambda: ad.sum_all(ad.mul(ad.matmul(mb1, mb2),
                                            ad.matmul(mb1, mb2)))))
    lx, lw, lb = t(3, 4), t(4, 5), t(5)
    cases.append(("linear", {"x": lx, "w": lw, "b": lb},
                  lambda: ad.sum_all(ad.mul(ad.linear(lx, lw, lb), ad.linear(lx, lw, lb)))))
    sx3 = t(2, 3, 4)
    cases.append(("linear_stacked", {"x": sx3, "w": lw, "b": lb},
                  lambda: ad.sum_all(ad.mul(ad.linear(sx3, lw, lb),
                                            ad.linear(sx3, lw, lb)))))
    s = t(3, 5)
    cases.append(("softmax", {"x": s},
                  lambda: ad.sum_all(ad.mul(ad.softmax(s, -1), s))))
    # layer_norm and gelu run in blocks of ad.BLOCK_ELEMENTS elements; these
    # inputs span two blocks, and their losses weigh the outputs by a fixed
    # probe of norm about 1, so central differences stay accurate over so
    # many elements
    x = t(2, ad.BLOCK_ELEMENTS // 6 * 3 // 4, 6)
    g, bb, zero = t(6), t(6), Tensor(np.zeros(x.shape))
    ln_probe = Tensor(rng.normal(size=x.shape) / np.sqrt(x.size))
    cases.append(("layer_norm", {"x": x, "gain": g, "bias": bb},
                  lambda: ad.sum_all(ad.mul(ad.layer_norm(x, zero, g, bb), ln_probe))))
    gl = t(7)
    cases.append(("cross_entropy", {"logits": gl}, lambda: cross_entropy(gl, [3])))
    ge = t(ad.BLOCK_ELEMENTS // 256 * 3 // 2, 256)
    ge_probe = Tensor(rng.normal(size=ge.shape) / np.sqrt(ge.size))
    cases.append(("gelu", {"x": ge},
                  lambda: ad.sum_all(ad.mul(ad.gelu(ge), ge_probe))))
    tr = t(3, 4)
    cases.append(("transpose", {"x": tr},
                  lambda: ad.sum_all(ad.mul(ad.transpose(tr), ad.transpose(tr)))))
    c1, c2 = t(2, 3), t(2, 2)
    cases.append(("concat_narrow", {"a": c1, "b": c2},
                  lambda: ad.sum_all(ad.mul(
                      ad.narrow(ad.concat([c1, c2], 1), 1, 1, 3),
                      ad.narrow(ad.concat([c1, c2], 1), 1, 1, 3)))))
    tb = t(6, 3)
    ids = np.array([0, 2, 2, 5, 1])
    cases.append(("take", {"table": tb},
                  lambda: ad.sum_all(ad.mul(ad.take(tb, ids), ad.take(tb, ids)))))
    hs = t(3, 4)
    cases.append(("reshape_transpose_axes", {"x": hs},
                  lambda: ad.sum_all(ad.mul(ad.transpose(ad.reshape(hs, (3, 2, 2)), 0, 1),
                                            ad.transpose(ad.reshape(hs, (3, 2, 2)), 0, 1)))))
    bt = t(9, 3)
    labels = np.array([[[0, 3, 8], [1, 1, 2]], [[4, 4, 0], [8, 7, 3]]])
    cases.append(("bias_at", {"table": bt},
                  lambda: ad.sum_all(ad.mul(ad.bias_at(bt, labels),
                                            ad.bias_at(bt, labels)))))
    # the long part: a full band over one example; a one-position gap inside
    # the radius, so some pairs attend across it and some index-offset slots
    # are masked; two examples of one stream, 3 positions apart so no slot
    # links them, with 2 and 3 globals, so the first one's last global slot
    # is padding that must take and give nothing; and those two examples at
    # scattered anchor rows. Each operand is [rows x dim], two heads of 4
    # columns. Outputs are weighed by probes of norm about 1, as for
    # layer_norm
    bq, bk, bv, bq_at = t(6, 8), t(6, 8), t(6, 8), t(3, 8)
    bkg, bvg, btable = t(5, 8), t(5, 8), t(12, 2)
    one, split = np.array([0, 5]), np.array([0, 2, 5])
    two = band_pattern(np.array([0, 1, 2, 5, 6, 7]), 2)

    def long_loss(q, pat, q_off, g_off):
        labels = rng.integers(0, 12, size=(q.shape[0], pat.width + int(np.diff(g_off).max())))
        probe = Tensor(rng.normal(size=q.shape) / np.sqrt(q.size))

        def loss():
            return ad.sum_all(ad.mul(long_attention(q, bk, bv, bkg, bvg, btable, pat, q_off,
                                                    g_off, labels), probe))

        return loss

    long_leaves = {"k": bk, "v": bv, "kg": bkg, "vg": bvg, "relpos": btable}
    cases.append(("long_attention", {"q": bq, **long_leaves},
                  long_loss(bq, band_pattern(np.arange(6), 2), np.array([0, 6]), one)))
    gapped_loss = long_loss(bq, band_pattern(np.array([0, 1, 2, 4, 5, 6]), 2),
                            np.array([0, 6]), one)
    two_loss = long_loss(bq, two, np.array([0, 3, 6]), split)
    cases.append(("long_attention_gapped", {"q": bq, **long_leaves},
                  lambda: ad.add(gapped_loss(), two_loss())))
    cases.append(("long_attention_anchors", {"q": bq_at, **long_leaves},
                  long_loss(bq_at, two.at(np.array([1, 4, 5])), np.array([0, 1, 3]), split)))

    # [rows x dim], two heads of 3 columns
    gq, gk, gv = t(5, 6), t(5, 6), t(5, 6)
    acfg = AttentionConfig(num_heads=2, model_dim=6, local_radius=1, relpos_vocab_size=12,
                           max_distance=4)
    segments = Segments.of([3, 4], [2, 3])
    sid = np.array([0, 1, -1, 0, 1, 2, 2])
    kl, vl, table = t(7, 6), t(7, 6), t(12, 2)
    cases.append(("global_attention",
                  {"qg": gq, "kg": gk, "vg": gv, "kl": kl, "vl": vl, "relpos": table},
                  lambda: ad.sum_all(ad.mul(*[global_attention(
                      gq, gk, gv, kl, vl, table, segments, sid, acfg)] * 2))))
    ra, rb = t(4, 3), t(3, 3)
    pieces = [(rb, 1, 2), (ra, 0, 3), (rb, 1, 2), (ra, 3, 1)]
    cases.append(("concat_rows", {"a": ra, "b": rb},
                  lambda: ad.sum_all(ad.mul(ad.concat_rows(pieces), ad.concat_rows(pieces)))))
    sa, sw = t(5, 3), t(3, 1)
    runs = np.array([0, 2, 2, 5])
    cases.append(("segment_matmul", {"a": sa, "w": sw},
                  lambda: ad.sum_all(ad.mul(ad.segment_matmul(sa, sw, runs),
                                            ad.segment_matmul(sa, sw, runs)))))
    # dense attention over a leading axis of 2, two heads of 3 columns, with
    # relpos labels; one key is masked for every query of the first entry,
    # another for one query of the second
    dq, dk, dv, dtable = t(2, 3, 6), t(2, 4, 6), t(2, 4, 6), t(12, 2)
    d_allowed = np.ones((2, 3, 4), dtype=bool)
    d_allowed[0, :, 2] = d_allowed[1, 1, 0] = False
    d_labels = rng.integers(0, 12, size=(3, 4))
    d_probe = Tensor(rng.normal(size=dq.shape) / np.sqrt(dq.size))
    cases.append(("dense_attention", {"q": dq, "k": dk, "v": dv, "relpos": dtable},
                  lambda: ad.sum_all(ad.mul(dense_attention(dq, dk, dv, 2, d_allowed, dtable,
                                                            d_labels), d_probe))))
    # a residual norm over two blocks; a loss over spans with gaps, as hibert pads
    rx, rr, rg, rb = t(*x.shape), t(*x.shape), t(6), t(6)
    cases.append(("layer_norm_residual", {"x": rx, "residual": rr, "gain": rg, "bias": rb},
                  lambda: ad.sum_all(ad.mul(ad.layer_norm(rx, ad.mul(rx, rr), rg, rb),
                                            ln_probe))))
    sl = t(18)
    cases.append(("cross_entropy_spans", {"logits": sl},
                  lambda: cross_entropy(sl, [2, 0, 5], [(0, 5), (7, 3), (11, 6)])))
    fx, fw1, fb1, fw2, fb2 = t(2, 3, 4), t(4, 6), t(6), t(6, 4), t(4)
    cases.append(("feed_forward", {"x": fx, "w1": fw1, "b1": fb1, "w2": fw2, "b2": fb2},
                  lambda: ad.sum_all(ad.mul(ad.feed_forward(fx, fw1, fb1, fw2, fb2),
                                            ad.feed_forward(fx, fw1, fb1, fw2, fb2)))))
    return cases


# elements checked per op-case tensor: all of every small tensor, a sample of
# the block-spanning layer_norm and gelu inputs
OP_CASE_SAMPLES = 64


def criterion_gradient_suite(samples_per_tensor: int = 8) -> tuple[bool, str]:
    t0 = time.time()
    failures = []

    for seed in range(10):
        for name, params, loss_fn in _op_cases(seed):
            fails = check_gradients(loss_fn, params, samples_per_tensor=OP_CASE_SAMPLES)
            if fails:
                failures.append(f"{name}[seed {seed}]: {fails[0]}")

    hm, hunits = toy_hibert()
    # two pairs in one padded pass: the first has the longer document, the
    # second the longer prefix, so each row has masked keys
    summaries = [hm.summary_rows((unit_step(1),), 1, None),
                 hm.summary_rows((unit_step(0), unit_step(1)), 1, None)]

    def hibert_loss():
        logits = hm.logits_batch(hm.unit_representations(hunits),
                                 [range(5), range(3)], summaries)
        flat = ad.reshape(logits, (10,))
        return ad.add(cross_entropy(flat, [2], [(0, 5)]), cross_entropy(flat, [0], [(5, 3)]))

    fails = check_gradients(hibert_loss, hm.named_parameters(),
                            samples_per_tensor=samples_per_tensor,
                            rng=np.random.default_rng(1))
    if fails:
        failures.append(f"hibert encoder: {len(fails)} mismatches, first {fails[0]}")

    em, assemblies = toy_etc()
    # two pairs of different documents in one stream call
    counts = [a.candidate_anchor.size for a in assemblies]

    def etc_loss():
        logits = em.logits(assemblies)
        return ad.add(cross_entropy(logits, [1], [(0, counts[0])]),
                      cross_entropy(logits, [2], [(counts[0], counts[1])]))

    fails = check_gradients(etc_loss, em.named_parameters(),
                            samples_per_tensor=samples_per_tensor,
                            rng=np.random.default_rng(2))
    if fails:
        failures.append(f"etc encoder: {len(fails)} mismatches, first {fails[0]}")

    elapsed = time.time() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 2 minute budget")
    detail = f"{elapsed:.1f}s; " + (failures[0] if failures else "all gradients match")
    return not failures, detail


# ---------------------------------------------------------------------------
# criterion 2: sparsity accounting
# ---------------------------------------------------------------------------


def criterion_sparsity() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    problems = []
    for length in (64, 128, 256):
        for radius in (2, 3, 8):
            cfg = AttentionConfig(num_heads=2, model_dim=8, local_radius=radius,
                                  relpos_vocab_size=12, max_distance=4)
            layer = init_glocal_layer(rng, cfg, 16, 0.05)
            long = Tensor(rng.normal(size=(length, 8)))
            glob = Tensor(rng.normal(size=(2, 8)))
            sid = np.zeros(length, dtype=np.int64)
            sid[length // 2:] = 1
            score_counter.reset()
            etc_global_local_attention(long, glob, sid, layer, cfg)
            got = score_counter.get("long_to_long")
            want = banded_pair_count(length, radius)
            if got != want:
                problems.append(f"L={length} r={radius}: counted {got}, want {want}")
            if got >= length * length:
                problems.append(f"L={length} r={radius}: count is quadratic")

    # full-radius banded long-to-long equals dense attention
    length, dim = 12, 8
    cfg = AttentionConfig(num_heads=2, model_dim=dim, local_radius=length - 1,
                          relpos_vocab_size=12, max_distance=4)
    params = init_mha(rng, dim, 0.05, cfg.relpos_vocab_size, cfg.num_heads)
    long = Tensor(rng.normal(size=(length, dim)))
    glob = Tensor(rng.normal(size=(1, dim)))
    sid = np.zeros(length, dtype=np.int64)
    long_out, _ = glocal_attention(long, glob, sid, params, cfg,
                                   enable_long_global=False)
    labels = bucket_matrix(np.arange(length), np.arange(length), cfg.max_distance)
    dense = multi_head_attention(long, long, long,
                                 np.ones((length, length), dtype=bool),
                                 params, cfg.num_heads, labels)
    gap = float(np.abs(long_out.data - dense.data).max())
    if gap > MASKED_OK:
        problems.append(f"full-radius banded vs dense gap {gap:.2e}")

    detail = problems[0] if problems else "counts exact; dense agreement at 1e-12"
    return not problems, detail


# ---------------------------------------------------------------------------
# criterion 3: reachability through globals
# ---------------------------------------------------------------------------


def criterion_reachability() -> tuple[bool, str]:
    rng = np.random.default_rng(21)
    length, dim, radius = 24, 8, 2
    cfg = AttentionConfig(num_heads=2, model_dim=dim, local_radius=radius,
                          relpos_vocab_size=12, max_distance=4)
    layers = [init_glocal_layer(rng, cfg, 16, 0.3) for _ in range(2)]
    sid = np.zeros(length, dtype=np.int64)
    i, j = 2, 16  # |i - j| = 14 > 2 * radius

    long_data = rng.normal(size=(length, dim))
    glob_data = rng.normal(size=(1, dim))

    def run(enable_globals: bool) -> np.ndarray:
        long = Tensor(long_data, requires_grad=True)
        glob = Tensor(glob_data)
        with Tape() as tape:
            stream_l, stream_g = long, glob
            for layer in layers:
                stream_l, stream_g = etc_global_local_attention(
                    stream_l, stream_g, sid, layer, cfg,
                    enable_long_global=enable_globals)
            # quadratic probe: a plain row sum is constant under layer norm
            # at unit gain, which would hide the path being tested
            row = ad.narrow(stream_l, 0, i, 1)
            loss = ad.sum_all(ad.mul(row, row))
            backward(tape, loss)
        return long.grad[j]

    with_globals = run(True)
    without = run(False)
    problems = []
    if not np.any(with_globals != 0.0):
        problems.append("no influence through globals at distance > 2r")
    if np.any(without != 0.0):
        problems.append("nonzero influence beyond 2r with global links masked")
    detail = problems[0] if problems else (
        f"|grad| through globals {np.abs(with_globals).max():.2e}; exact zero without"
    )
    return not problems, detail


# ---------------------------------------------------------------------------
# criterion 5: decoder exactness
# ---------------------------------------------------------------------------


class ScriptedScorer(StepScorer):
    """Deterministic random step tables keyed by the chosen-index prefix."""

    def __init__(self, n_units: int, seed: int, records: list[RecordRef] | None = None):
        self.candidates = [END_STEP] + [
            unit_step(i, records[i] if records else None) for i in range(n_units)
        ]
        self._seed = seed
        self._cache: dict[tuple[int, ...], np.ndarray] = {}

    def _key(self, prefix: tuple[PlanStep, ...]) -> tuple[int, ...]:
        return tuple(self.candidates.index(s) for s in prefix)

    def step_log_probs(self, prefix: tuple[PlanStep, ...]) -> np.ndarray:
        key = self._key(prefix)
        if key not in self._cache:
            rng = np.random.default_rng((self._seed, 977, *key))
            logits = rng.normal(size=len(self.candidates)) * 2.0
            self._cache[key] = logits - np.log(np.exp(logits).sum())
        return self._cache[key]

    def candidate_tokens(self, index: int) -> list[str]:
        return [f"u{index}"]


def exhaustive_best_plan(scorer, max_steps: int, constraints: DecodeConstraints):
    """Brute-force argmax over every admissible plan (independent of the beam).

    A plan finishes at an end step or at ``max_steps`` steps; its score is
    the sum of step log-probabilities. Ties prefer the smaller index trace,
    then the shorter plan.
    """
    best: tuple[float, tuple[int, ...], int] | None = None
    best_steps: list[PlanStep] | None = None

    def blocked(chosen: list[PlanStep], step: PlanStep) -> bool:
        if step.is_end or step.is_break:
            return False
        if constraints.no_repeat and step in chosen:
            if not (constraints.repeat_exceptions and step.record is not None
                    and step.record.type in REPEAT_EXEMPT_TYPES):
                return True
        return False

    def visit(chosen: list[PlanStep], trace: list[int], score: float) -> None:
        nonlocal best, best_steps
        log_probs = scorer.step_log_probs(tuple(chosen))
        for ci, step in enumerate(scorer.candidates):
            if blocked(chosen, step):
                continue
            new_score = score + float(log_probs[ci])
            new_trace = trace + [ci]
            if step.is_end or len(chosen) + 1 >= max_steps:
                key = (-new_score, tuple(new_trace), len(chosen) + 1)
                if best is None or key < best:
                    best = key
                    best_steps = chosen + [step]
            else:
                visit(chosen + [step], new_trace, new_score)

    visit([], [], 0.0)
    assert best is not None and best_steps is not None
    return best_steps, -best[0]


def criterion_decoder_exactness(n_instances: int = 100) -> tuple[bool, str]:
    problems = []
    for seed in range(n_instances):
        rng = np.random.default_rng((seed, 31))
        n_units = int(rng.integers(2, 6))           # candidates = units + stop <= 6
        max_steps = int(rng.integers(1, 5))
        constraints = DecodeConstraints(no_repeat=bool(rng.integers(0, 2)))
        scorer = ScriptedScorer(n_units, seed)

        wide = beam_decode(scorer, beam_size=4096, max_steps=max_steps,
                           constraints=constraints)
        want_steps, want_score = exhaustive_best_plan(scorer, max_steps, constraints)
        if wide.steps != want_steps:
            problems.append(f"seed {seed}: wide beam differs from exhaustive argmax")
            continue
        if abs(wide.log_prob - want_score) > 1e-9:
            problems.append(f"seed {seed}: score drift {wide.log_prob - want_score}")
            continue

        narrow_beam = beam_decode(scorer, beam_size=3, max_steps=max_steps,
                                  constraints=constraints)
        greedy = greedy_rollout(scorer, max_steps, constraints)
        if greedy.finished and narrow_beam.log_prob < greedy.log_prob - 1e-12:
            problems.append(f"seed {seed}: beam-3 below greedy")
    detail = problems[0] if problems else f"{n_instances} scripted instances agree"
    return not problems, detail


# ---------------------------------------------------------------------------
# criterion 6: oracle quality
# ---------------------------------------------------------------------------


def _random_doc(rng: np.random.Generator) -> tuple[list[list[str]], list[str]]:
    """Summarization-shaped random documents: the reference borrows phrases.

    Sentences draw from a shared vocabulary; the reference concatenates
    fragments of a few source sentences plus some noise tokens, the shape
    real abstracts have (uniform token noise would make subset scores pure
    noise and say nothing about greedy quality).
    """
    vocab = [f"w{i}" for i in range(40)]
    n_sents = int(rng.integers(3, 11))
    doc = [[vocab[int(t)] for t in rng.integers(0, len(vocab),
                                                int(rng.integers(4, 8)))]
           for _ in range(n_sents)]
    reference: list[str] = []
    sources = rng.choice(n_sents, size=min(int(rng.integers(2, 4)), n_sents),
                         replace=False)
    for s in sources:
        sent = doc[int(s)]
        k = int(rng.integers(2, len(sent) + 1))
        start = int(rng.integers(0, len(sent) - k + 1))
        reference.extend(sent[start: start + k])
    reference.extend(vocab[int(t)] for t in rng.integers(0, len(vocab),
                                                         int(rng.integers(0, 4))))
    return doc, reference


def criterion_oracle_quality(n_docs: int = 100) -> tuple[bool, str]:
    problems = []
    # vocabulary-disjoint constructions: greedy must equal brute force
    for k in range(10):
        rng = np.random.default_rng((k, 41))
        n_sents = int(rng.integers(2, 8))
        doc = [[f"s{i}_{j}" for j in range(4)] for i in range(n_sents)]
        target = sorted(rng.choice(n_sents, size=min(2, n_sents),
                                   replace=False).tolist())
        reference = [t for i in target for t in doc[i]]
        g = oracle_full(doc, reference, max_size=3)
        b = brute_force_oracle(doc, reference, max_size=3)
        if sorted(g.selected) != list(b.selected):
            problems.append(f"disjoint case {k}: greedy {g.selected} vs brute {b.selected}")

    ratios = []
    low = []
    for k in range(n_docs):
        rng = np.random.default_rng((k, 43))
        doc, reference = _random_doc(rng)
        g = oracle_full(doc, reference, max_size=3)
        b = brute_force_oracle(doc, reference, max_size=3)
        ratio = 1.0 if b.score == 0 else g.score / b.score
        ratios.append(ratio)
        if ratio < 0.9:
            low.append((k, ratio))
    mean_ratio = float(np.mean(ratios))
    if mean_ratio < 0.97:
        problems.append(f"mean greedy/brute ratio {mean_ratio:.4f} below 0.97")
    if low:
        problems.append(f"{len(low)} documents below 0.9, e.g. {low[0]}")
    detail = (problems[0] if problems
              else f"mean greedy/optimal ratio {mean_ratio:.4f}, min {min(ratios):.4f}")
    return not problems, detail


# ---------------------------------------------------------------------------
# criterion 7: metric oracles
# ---------------------------------------------------------------------------


def osa_search(a: tuple, b: tuple) -> int:
    """Recursive edit-script search over the restricted alignment space.

    Written straight from the operation definitions (match/substitute,
    insert, delete, adjacent transpose that consumes both pairs), with only
    a running upper bound for pruning. Independent of the DP table.
    """

    best = len(a) + len(b)

    def go(i: int, j: int, cost: int) -> None:
        nonlocal best
        remaining = abs((len(a) - i) - (len(b) - j))
        if cost + remaining >= best:
            return
        if i == len(a) and j == len(b):
            best = min(best, cost)
            return
        if i < len(a) and j < len(b):
            go(i + 1, j + 1, cost + (0 if a[i] == b[j] else 1))
            if (i + 1 < len(a) and j + 1 < len(b) and a[i] == b[j + 1]
                    and a[i + 1] == b[j]):
                go(i + 2, j + 2, cost + 1)
        if i < len(a):
            go(i + 1, j, cost + 1)
        if j < len(b):
            go(i, j + 1, cost + 1)

    go(0, 0, 0)
    return best


def subsequences(a: tuple) -> set[tuple]:
    """Every subsequence of ``a``, one per subset of its positions.

    The longest one two strings share is their LCS, straight from the
    definition and independent of any LCS table or bit vector.
    """
    return {tuple(a[i] for i in keep)
            for k in range(len(a) + 1)
            for keep in itertools.combinations(range(len(a)), k)}


def criterion_metric_oracles(max_len: int = 5) -> tuple[bool, str]:
    problems = []

    # exhaustive equality for the default edit distance over a 3-symbol alphabet
    alphabet = ("a", "b", "c")
    strings: list[tuple] = [()]
    for length in range(1, max_len + 1):
        strings.extend(itertools.product(alphabet, repeat=length))
    checked = 0
    for x in strings:
        for y in strings:
            want = osa_search(x, y)
            got = dld(x, y)
            if got != want:
                problems.append(f"dld({x}, {y}) = {got}, search says {want}")
                break
            checked += 1
        if problems:
            break

    # exhaustive equality for the bit-parallel LCS over the same strings
    subs = {x: subsequences(x) for x in strings}
    for x in strings:
        for y in strings:
            want = max(map(len, subs[x] & subs[y]))
            got = _lcs_length(x, y)
            if got != want:
                problems.append(f"lcs({x}, {y}) = {got}, search says {want}")
                break
            checked += 1
        if problems:
            break

    # frozen hand cases
    hand = [
        (rouge_n("a b c".split(), "a b d".split(), 2).f1, 0.5),
        (rouge_l("a b c".split(), "a c".split()).f1, 0.8),
        (rouge_l("a b".split(), "b a".split()).f1, 0.5),
        (co_score(["a", "b"], ["b", "a"]), 0.5),
        (co_score(["a"], ["b"]), 0.0),
        (co_score([], []), 1.0),
        (float(dld(["a", "b"], ["b", "a"])), 1.0),
    ]
    r1 = rouge_n("a b c".split(), "a b d".split(), 1).f1
    r2 = rouge_n("a b c".split(), "a b d".split(), 2).f1
    rl = rouge_l("a b c".split(), "a b d".split()).f1
    hand.append((mean_rouge_f1("a b c".split(), "a b d".split()),
                 (r1 + r2 + rl) / 3.0))
    for got, want in hand:
        if abs(got - want) > 1e-9:
            problems.append(f"hand case: got {got}, want {want}")

    cs = cs_scores([RecordRef("x", "T-A", "1"), RecordRef("x", "T-A", "1")],
                   [RecordRef("x", "T-A", "1")])
    if abs(cs.precision - 0.5) > 1e-9 or abs(cs.recall - 1.0) > 1e-9:
        problems.append(f"multiset cs case broke: {cs}")

    # axioms over random instances
    rng = np.random.default_rng(55)
    for k in range(1000):
        n1, n2 = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        a = tuple(rng.integers(0, 3) for _ in range(n1))
        b = tuple(rng.integers(0, 3) for _ in range(n2))
        if dld(a, b) != dld(b, a):
            problems.append(f"dld symmetry broke on {a}, {b}")
            break
        if (dld(a, b) == 0) != (a == b):
            problems.append(f"dld identity broke on {a}, {b}")
            break
        co = co_score(list(a), list(b))
        if not (0.0 <= co <= 1.0) or ((co == 1.0) != (a == b)):
            problems.append(f"co range/identity broke on {a}, {b}")
            break
        ga = [RecordRef("e", f"T{t}", "") for t in a]
        gb = [RecordRef("e", f"T{t}", "") for t in b]
        fwd = cs_scores(ga, gb)
        rev = cs_scores(gb, ga)
        if ga and gb and (abs(fwd.precision - rev.recall) > 1e-12
                          or abs(fwd.recall - rev.precision) > 1e-12):
            problems.append(f"cs swap symmetry broke on {a}, {b}")
            break

    detail = (problems[0] if problems
              else f"{checked} exhaustive pairs (edit distance and LCS), hand cases "
                   "and axioms hold")
    return not problems, detail


# ---------------------------------------------------------------------------
# criterion 8: table formatting fidelity
# ---------------------------------------------------------------------------


def criterion_rotowire_fidelity() -> tuple[bool, str]:
    problems = []
    game = parse_game(table3_game())
    rank_of = {(r.ref.entity, r.ref.type): r for r in rank_records(game)}

    pts = rank_of[("Chicago_Bulls", "TEAM-PTS")]
    rendered = " ".join(templated_sentence(pts, game))
    want = "team points scored of Chicago_Bulls is 100 which is 1st best"
    if rendered != want:
        problems.append(f"worked example rendered as {rendered!r}")

    home = rank_of[("Chicago_Bulls", "TEAM-HOME_AWAY")]
    if " ".join(templated_sentence(home, game)) != "Chicago_Bulls is home team of match":
        problems.append("home/away template broke")

    date = rank_of[("match", "MATCH-DATE")]
    date_words = templated_sentence(date, game)
    if date_words[-1] != "5":  # Saturday with Monday = 0
        problems.append(f"weekday token {date_words[-1]!r}, want '5'")

    s1 = [
        unit_step(0, RecordRef("Chicago_Bulls", "TEAM-CITY")),
        unit_step(1, RecordRef("Chicago_Bulls", "TEAM-NAME")),
        unit_step(2, RecordRef("LA_Lakers", "TEAM-CITY")),
        unit_step(3, RecordRef("LA_Lakers", "TEAM-NAME")),
        unit_step(4, RecordRef("Chicago_Bulls", "TEAM-PTS")),
        unit_step(5, RecordRef("LA_Lakers", "TEAM-PTS")),
        unit_step(6, RecordRef("match", "MATCH-DATE")),
        PlanStep("break"),
    ]
    tokens = linearize_plan(s1)
    want_tokens = ["<BEG>", "Chicago_Bulls|TEAM-CITY", "Chicago_Bulls|TEAM-NAME",
                   "LA_Lakers|TEAM-CITY", "LA_Lakers|TEAM-NAME",
                   "Chicago_Bulls|TEAM-PTS", "LA_Lakers|TEAM-PTS",
                   "match|MATCH-DATE", "<EOS>", "<EOT>"]
    if tokens != want_tokens:
        problems.append(f"plan linearization {tokens}")
    if linearize_plan([]) != ["<BEG>", "<EOT>"]:
        problems.append("empty plan linearization broke")

    # stats harness mechanics on a small synthetic plan corpus
    plans = [s1 + [END_STEP], s1[:3] + [END_STEP]]
    stats = plan_stats(plans)
    if stats.plans != 2 or abs(stats.mean_entries - 5.0) > 1e-12:
        problems.append(f"plan stats broke: {stats}")

    detail = (problems[0] if problems
              else f"templates exact; stats example mean {stats.mean_entries} entries")
    return not problems, detail


FAST_CRITERIA = [
    ("gradient suite", criterion_gradient_suite),
    ("sparsity accounting", criterion_sparsity),
    ("reachability", criterion_reachability),
    ("decoder exactness", criterion_decoder_exactness),
    ("oracle quality", criterion_oracle_quality),
    ("metric oracles", criterion_metric_oracles),
    ("table formatting fidelity", criterion_rotowire_fidelity),
]


def run_fast_criteria(emit=print) -> bool:
    ok_all = True
    for name, fn in FAST_CRITERIA:
        ok, detail = fn()
        ok_all &= ok
        emit(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok_all
