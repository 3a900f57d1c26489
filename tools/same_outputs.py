"""Check that two checkouts write byte-identical pipeline outputs.

Usage, from anywhere:

    python3 tools/same_outputs.py PARENT CHANGE
    python3 tools/same_outputs.py PARENT CHANGE --workloads docs-etc --seeds 3 --rounds 1
    python3 tools/same_outputs.py PARENT CHANGE --params-atol 1e-12

Each checkout runs in its own subprocess, with BLAS and OpenMP at one
thread. The subprocess builds the decode checkpoint as that
checkout's ``perfbench/run.py`` does, then runs rounds ``0..rounds-1`` of
each workload and seed through its ``perfbench/pipeline.run_round``, which
checks every output. It reports the sha256 of both oracle outputs, the
printed ``train`` output, ``decoded.jsonl``, ``eval.json`` and the
``params.bin`` of the best and of the last checkpoint of every round. The
script prints each output that differs and exits 1 if any does, 2 if a
checkout's run failed, and 0 when every output is identical. With
``--params-atol X``, either ``params.bin`` that differs is compared tensor
by tensor instead (the ``manifest.json`` beside it names the tensors), its
largest absolute difference is printed, and it passes when that difference
is at most X; every other output must still be identical. Defaults: all
three workloads, seeds 3 and 101, rounds 0-2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

WORKLOADS = ("docs-hibert", "docs-etc", "tables-etc")
FILES = {"decoded.jsonl": "decoded.jsonl", "eval.json": "eval.json",
         "best/params.bin": os.path.join("train", "best", "params.bin"),
         "last/params.bin": os.path.join("train", "last", "params.bin")}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def emit(checkout: str, workloads: list[str], seeds: list[int], rounds: int,
         work: str) -> dict[str, str]:
    """Digests of every output of ``checkout``'s rounds, keyed by round and name.

    The outputs stay under ``work``, at ``output_path``.
    """
    sys.path[:0] = [os.path.join(checkout, "perfbench"), os.path.join(checkout, "src")]
    import run  # pins BLAS and OpenMP to one thread before numpy loads
    from workloads import WORKLOADS as SPECS, Lexicon, write_round

    # every checkpoint first: each set-up re-imports stepsum, and the
    # pipeline must bind the modules of the last one
    jobs = []
    for name in workloads:
        w = SPECS[name]
        for seed in seeds:
            base = os.path.join(work, name, str(seed))
            lexicon = Lexicon(seed) if w.task == "cnndm" else None
            files = write_round(w, seed, 0, os.path.join(base, "r0", "in"), lexicon)
            ckpt = os.path.join(base, "ckpt")
            run.setup_once(w, files, ckpt)
            jobs.append((w, seed, base, lexicon, files, ckpt))
    import pipeline

    digests = {}
    for w, seed, base, lexicon, files, ckpt in jobs:
        for k in range(rounds):
            if k:
                files = write_round(w, seed, k, os.path.join(base, f"r{k}", "in"), lexicon)
            res = pipeline.run_round(w, files, ckpt, output_path(work, w.name, seed, k),
                                     clock=None, eval_min_s=0.0)
            key = f"{w.name} seed {seed} round {k}"
            for part in ("oracle-0", "oracle-1", "train"):
                digests[f"{key} {part}"] = _sha256(res.outputs[part])
            for part, rel in FILES.items():
                with open(output_path(work, w.name, seed, k, rel), "rb") as fh:
                    digests[f"{key} {part}"] = _sha256(fh.read())
    return digests


def output_path(work: str, workload: str, seed: int, k: int, rel: str = "") -> str:
    """Where ``emit`` leaves round ``k``'s outputs, or the one at ``rel`` among them."""
    return os.path.join(work, workload, str(seed), f"r{k}", "out", rel)


def params_difference(a: str, b: str) -> float:
    """The largest absolute difference between two ``params.bin`` files, tensor
    by tensor; infinite when their manifests name other tensors or shapes."""
    tensors = []
    for path in (a, b):
        with open(os.path.join(os.path.dirname(path), "manifest.json"), encoding="utf-8") as fh:
            entries = json.load(fh)["tensors"]
        payload = np.fromfile(path, dtype="<f8")
        tensors.append({e["name"]: payload[e["offset"] // 8:e["offset"] // 8 + e["size"]]
                        .reshape(e["shape"]) for e in entries})
    if [(n, t.shape) for n, t in tensors[0].items()] != [(n, t.shape)
                                                         for n, t in tensors[1].items()]:
        return float("inf")
    return max((float(np.abs(tensors[0][n] - tensors[1][n]).max(initial=0.0))
                for n in tensors[0]), default=0.0)


def _params_file(work: str, name: str) -> str:
    """The ``params.bin`` of the digest ``name``, "<workload> seed S round K best/params.bin"
    or "... last/params.bin"."""
    workload, _, seed, _, k, part = name.split()
    return output_path(work, workload, int(seed), int(k), FILES[part])


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """Names whose digests differ, or that only one side reports."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _run_checkout(checkout: str, args, work: str) -> dict[str, str] | None:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the child puts the checkout's own paths first
    cmd = [sys.executable, os.path.abspath(__file__), "--emit", checkout, "--work", work,
           "--workloads", *args.workloads, "--seeds", *map(str, args.seeds),
           "--rounds", str(args.rounds)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{checkout}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", metavar="CHECKOUT")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[3, 101])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--params-atol", type=float, metavar="X",
                        help="compare params.bin tensor by tensor; pass at most X apart")
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        print(json.dumps(emit(os.path.abspath(args.emit), args.workloads, args.seeds,
                              args.rounds, args.work)))
        return 0
    if len(args.checkouts) != 2 or args.rounds < 1:
        parser.error("give two checkouts and at least one round")

    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        works = [os.path.join(work, side) for side in ("a", "b")]
        for w in works:
            os.makedirs(w)
        a, b = (_run_checkout(os.path.abspath(c), args, w)
                for c, w in zip(args.checkouts, works))
        if a is None or b is None:
            return 2
        bad = differing(a, b)
        close = {}
        if args.params_atol is not None:
            both = a.keys() & b.keys()
            close = {name: params_difference(*(_params_file(w, name) for w in works))
                     for name in bad if name.endswith("/params.bin") and name in both}
    for name in bad:
        detail = f" (largest difference {close[name]:.3g})" if name in close else ""
        print(f"differs: {name}{detail}")
    if args.params_atol is None:
        print(f"{len(a.keys() | b.keys()) - len(bad)} identical, {len(bad)} differ")
        return 1 if bad else 0
    within = [name for name, d in close.items() if d <= args.params_atol]
    largest = max(close.values(), default=0.0)
    print(f"params.bin: largest difference {largest:.3g}, tolerance {args.params_atol:g}")
    print(f"{len(a.keys() | b.keys()) - len(bad)} identical, {len(within)} within "
          f"{args.params_atol:g}, {len(bad) - len(within)} differ")
    return 1 if len(bad) > len(within) else 0


if __name__ == "__main__":
    sys.exit(main())
