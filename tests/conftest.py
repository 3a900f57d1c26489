"""Shared helpers: the environment for the CLI as a subprocess, and the
per-pair rows of a ``score_pairs`` result."""

import os

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def cli_env(extra=None):
    """The environment for a ``python -m stepsum.cli`` child process.

    The checkout's ``src`` directory goes first on ``PYTHONPATH`` as an
    absolute path, so the child imports this checkout's ``stepsum`` whatever
    its working directory, and never an installed copy.
    """
    env = dict(os.environ)
    if extra:
        env.update(extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def pair_rows(scored):
    """Each pair's logits, as arrays, from ``score_pairs``'s (logits, spans)."""
    logits, spans = scored
    return [logits.data[s:s + n] for s, n in spans]
