"""Reference copies of the gather-based band ops that the per-offset slice
products replaced, kept as differential test oracles.

Here a pattern is a list of valid (query, key) pairs: ``ii``/``jj`` index the
rows and ``ww`` is the window slot, the original-position offset plus the
radius. Scores and weights live in a [heads x len x (2r+1)] buffer indexed by
that slot. The ops gather a [heads x pairs x d] copy of q, k and v and sum
per-pair products back into rows with ``reduceat`` (``np.add.at`` when some
row owns no pair).
"""

from dataclasses import dataclass

import numpy as np

from stepsum.autodiff import MASK_NEG, Tensor, apply_op


@dataclass
class BandPattern:
    length: int
    radius: int
    ii: np.ndarray
    jj: np.ndarray
    ww: np.ndarray
    i_starts: np.ndarray | None = None
    j_order: np.ndarray | None = None
    j_starts: np.ndarray | None = None

    def __post_init__(self) -> None:
        counts = np.bincount(self.ii, minlength=self.length)
        if self.count and counts.min() > 0:
            self.i_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            self.j_order = np.argsort(self.jj, kind="stable")
            jcounts = np.bincount(self.jj, minlength=self.length)
            self.j_starts = np.concatenate(([0], np.cumsum(jcounts)[:-1]))

    @property
    def width(self) -> int:
        return 2 * self.radius + 1

    @property
    def count(self) -> int:
        return int(self.ii.size)

    @property
    def slots(self) -> np.ndarray:
        return self.ii * self.width + self.ww


def band_pattern(length: int, radius: int, active: np.ndarray | None = None) -> BandPattern:
    """Window over an uncompacted stream; pairs touching inactive rows are dropped."""
    offs = np.arange(-radius, radius + 1)
    ii = np.repeat(np.arange(length), offs.size)
    jj = ii + np.tile(offs, length)
    keep = (jj >= 0) & (jj < length)
    if active is not None:
        act = np.asarray(active, dtype=bool)
        keep &= act[ii] & act[np.clip(jj, 0, length - 1)]
    ii, jj = ii[keep], jj[keep]
    return BandPattern(length, radius, ii, jj, jj - ii + radius)


def band_pattern_for_positions(positions: np.ndarray, radius: int) -> BandPattern:
    """Window over a compacted stream, judged on the rows' original positions."""
    pos = np.asarray(positions, dtype=np.int64)
    n = pos.size
    lo = np.searchsorted(pos, pos - radius, side="left")
    hi = np.searchsorted(pos, pos + radius, side="right")
    counts = hi - lo
    ii = np.repeat(np.arange(n), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    jj = np.repeat(lo, counts) + (np.arange(int(counts.sum()))
                                  - np.repeat(starts, counts))
    return BandPattern(n, radius, ii, jj, pos[jj] - pos[ii] + radius)


def _segment_sum_i(pat: BandPattern, per_pair: np.ndarray) -> np.ndarray:
    if pat.i_starts is not None:
        return np.add.reduceat(per_pair, pat.i_starts, axis=1)
    out = np.zeros((per_pair.shape[0], pat.length, per_pair.shape[2]))
    np.add.at(out, (slice(None), pat.ii), per_pair)
    return out


def _segment_sum_j(pat: BandPattern, per_pair: np.ndarray) -> np.ndarray:
    if pat.j_starts is not None:
        return np.add.reduceat(np.take(per_pair, pat.j_order, axis=1), pat.j_starts,
                               axis=1)
    out = np.zeros((per_pair.shape[0], pat.length, per_pair.shape[2]))
    np.add.at(out, (slice(None), pat.jj), per_pair)
    return out


def banded_scores(q: Tensor, k: Tensor, pat: BandPattern) -> Tensor:
    heads = q.shape[0]
    qd, kd, slots = q.data, k.data, pat.slots
    buf = np.full((heads, pat.length * pat.width), MASK_NEG)
    buf[:, slots] = np.einsum("hnd,hnd->hn", np.take(qd, pat.ii, axis=1),
                              np.take(kd, pat.jj, axis=1))

    def back(g, accum):
        gpairs = g.reshape(heads, -1)[:, slots][..., None]
        accum(q, _segment_sum_i(pat, gpairs * np.take(kd, pat.jj, axis=1)))
        accum(k, _segment_sum_j(pat, gpairs * np.take(qd, pat.ii, axis=1)))

    return apply_op(buf.reshape(heads, pat.length, pat.width), (q, k), back,
                    what="banded_scores")


def banded_apply(weights: Tensor, v: Tensor, pat: BandPattern) -> Tensor:
    heads = v.shape[0]
    wd, vd, slots = weights.data, v.data, pat.slots
    wpairs = wd.reshape(heads, -1)[:, slots][..., None]
    out = _segment_sum_i(pat, wpairs * np.take(vd, pat.jj, axis=1))

    def back(g, accum):
        gi = np.take(g, pat.ii, axis=1)
        gw = np.zeros((heads, pat.length * pat.width))
        gw[:, slots] = np.einsum("hnd,hnd->hn", gi, np.take(vd, pat.jj, axis=1))
        accum(weights, gw.reshape(wd.shape))
        accum(v, _segment_sum_j(pat, wpairs * gi))

    return apply_op(out, (weights, v), back, what="banded_apply")


def band_labels(pat: BandPattern, max_distance: int) -> np.ndarray:
    offs = np.arange(-pat.radius, pat.radius + 1)
    row = np.clip(offs, -max_distance, max_distance) + max_distance
    return np.broadcast_to(row, (pat.length, pat.width)).copy()
