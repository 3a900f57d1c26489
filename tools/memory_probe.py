"""Where the memory of a taped training step goes.

Usage, from anywhere:

    python3 tools/memory_probe.py
    python3 tools/memory_probe.py --workloads docs-etc --seed 3 --rows 2048

With BLAS and OpenMP at one thread and ``tracemalloc`` on, for each workload
it writes round 0 of ``--seed`` through ``perfbench/workloads`` (read-only)
and runs ``stepsum train`` on it in process. Of the command's first training
step it prints the tape's nodes per op kind, the bytes their backwards reach
per op kind, and the ``tracemalloc`` peak over the step's forward and
backward; then the peak of the whole command. Then it tapes one paper-shape
feed-forward sublayer, ``[rows x 768] -> 3072 -> 768``, at ``--rows`` rows,
and prints the same per op kind, the bytes traced after its forward beyond
its output, and the seconds of its backward.

A backward reaches an array through its closure, and through the tensors,
containers and package objects the closure holds. Each array is counted
once, with its base array when it is a view, under the first node on the
tape that reaches it. The step's leaves, the model's parameters or the
sublayer's input and weights, are left out: what is left is what the tape
keeps alive for the sweep.
"""

from __future__ import annotations

import os

# pinned before numpy loads
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
from workloads import WORKLOADS, Lexicon, write_round  # noqa: E402

from stepsum import attention, cli, training  # noqa: E402
from stepsum import autodiff as ad  # noqa: E402

MIB = 1 << 20
PAPER_DIM, PAPER_FFN = 768, 3072


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _reached(obj, seen: set[int]) -> list[np.ndarray]:
    """Base arrays reachable from ``obj`` that ``seen`` does not hold yet."""
    found, stack = [], [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, np.ndarray):
            o = _base(o)
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found.append(o)
        elif isinstance(o, ad.Tensor):
            stack.append(o.data)
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, types.FunctionType):
            for cell in o.__closure__ or ():
                with contextlib.suppress(ValueError):  # an empty cell
                    stack.append(cell.cell_contents)
        elif type(o).__module__.startswith("stepsum") and hasattr(o, "__dict__"):
            stack.extend(vars(o).values())
    return found


def tape_table(tape: ad.Tape, leaves) -> list[str]:
    """Nodes and the bytes their backwards reach, per op kind, in tape order."""
    seen = {id(_base(t.data)) for t in leaves}
    nodes, kept = Counter(), Counter()
    for node in tape.nodes:
        kind = node.backward.__qualname__.split(".")[0]
        nodes[kind] += 1
        kept[kind] += sum(a.nbytes for a in _reached(node.backward, seen))
    rows = [f"  {'op kind':22s} {'nodes':>6s} {'kept MiB':>10s}"]
    rows += [f"  {k:22s} {nodes[k]:6d} {kept[k] / MIB:10.2f}" for k in nodes]
    rows.append(f"  {'total':22s} {sum(nodes.values()):6d} {sum(kept.values()) / MIB:10.2f}")
    return rows


def probe_train(name: str, seed: int, work: str) -> list[str]:
    """Round 0 of ``name``: its first training step's tape and peaks, and the
    peak of its train command."""
    w = WORKLOADS[name]
    files = write_round(w, seed, 0, os.path.join(work, name),
                        Lexicon(seed) if w.task == "cnndm" else None)
    forward, sweep = training.batch_mean_loss, training.backward
    out: list[str] = [f"{name} seed {seed} round 0, first training step"]
    step = {}

    def first_forward(model, *args):
        if not step:
            step["leaves"] = list(model.named_parameters().values())
            step["command_peak"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            step["start"] = tracemalloc.get_traced_memory()[0]
        return forward(model, *args)

    def first_backward(tape, loss):
        if "peak" in step:
            return sweep(tape, loss)
        out.extend(tape_table(tape, step["leaves"]))
        sweep(tape, loss)
        step["peak"] = tracemalloc.get_traced_memory()[1]
        out.append(f"  tracemalloc peak over forward and backward: "
                   f"{(step['peak'] - step['start']) / MIB:.1f} MiB")

    argv = ["train", "--config", files.config, "--train", files.train, "--valid", files.valid,
            "--out", os.path.join(work, name, "ckpt")]
    if w.task == "rotowire":
        argv += ["--train-plans", files.train_plans, "--valid-plans", files.valid_plans]
    training.batch_mean_loss, training.backward = first_forward, first_backward
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            code = cli.main(argv)
        peak = max(step["command_peak"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        training.batch_mean_loss, training.backward = forward, sweep
    if code != 0:
        raise RuntimeError(f"{name}: train exited {code}")
    out.append(f"  tracemalloc peak of the train command: {peak / MIB:.1f} MiB")
    return out


def probe_feed_forward(rows: int) -> list[str]:
    """One taped paper-shape feed-forward sublayer at ``rows`` rows."""
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(size=(rows, PAPER_DIM)), requires_grad=True)
    p = attention.init_ffn(rng, PAPER_DIM, PAPER_FFN, 0.02)
    leaves = [x, p.w1, p.b1, p.w2, p.b2]
    out = [f"feed_forward [{rows} x {PAPER_DIM}] -> {PAPER_FFN} -> {PAPER_DIM}"]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with ad.Tape() as tape:
            y = attention.feed_forward(x, p)
            kept = tracemalloc.get_traced_memory()[0] - start - y.data.nbytes
            loss = ad.sum_all(y)
            out.extend(tape_table(tape, leaves))
            t0 = time.perf_counter()
            ad.backward(tape, loss)
            seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    out.append(f"  traced after the forward beyond its output: {kept / MIB:.2f} MiB")
    out.append(f"  tracemalloc peak over forward and backward: {peak / MIB:.1f} MiB")
    out.append(f"  backward: {seconds:.3f} s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rows", type=int, default=2048)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="memory-probe-") as work:
        for name in args.workloads:
            print("\n".join(probe_train(name, args.seed, work)))
    print("\n".join(probe_feed_forward(args.rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
