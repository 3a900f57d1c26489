"""Reference copy of the padded flat-input assembly that the compact one
replaced, kept as a differential test oracle.

The layout is padded to ``long_budget + summary_budget + 3`` rows; padding
rows hold ``pad_id`` in segment ``SEG_PAD`` with no global token, and
candidate anchors are padded-layout positions. Trailing document units and
plan elements that do not fit are dropped, counted and reported in
``warnings``.
"""

from dataclasses import dataclass, field

import numpy as np

from stepsum.attention import NO_GLOBAL
from stepsum.etc_encoder import GLOBAL_DELIM, GLOBAL_DOC, GLOBAL_SPECIAL, GLOBAL_SUM

# segment ids of the padded layout; the compact one has no segments, and
# the padding segment marks the rows it does not build
SEG_SPECIAL = 0
SEG_DOC = 1
SEG_SUM = 2
SEG_PAD = 3


@dataclass
class PaddedAssembly:
    long_ids: np.ndarray
    sentence_id: np.ndarray
    segment: np.ndarray
    global_count: int
    global_kind: np.ndarray
    candidate_anchor: np.ndarray
    truncated_doc_units: int = 0
    truncated_plan_elements: int = 0
    warnings: list[str] = field(default_factory=list)

    @property
    def active(self) -> np.ndarray:
        return self.segment != SEG_PAD


def reference_assemble_input(doc_units, plan_units, special_units, candidate_special_count,
                             *, long_budget, summary_budget, global_cap, pad_id, cls_id,
                             sep_id, beg_id, eos_id) -> PaddedAssembly:
    total = long_budget + summary_budget + 3
    long_ids = np.full(total, pad_id, dtype=np.int64)
    sentence_id = np.full(total, NO_GLOBAL, dtype=np.int64)
    segment = np.full(total, SEG_PAD, dtype=np.int64)

    globals_kind: list[int] = []

    def new_global(kind: int) -> int:
        if len(globals_kind) >= global_cap:
            return NO_GLOBAL
        globals_kind.append(kind)
        return len(globals_kind) - 1

    long_ids[0] = cls_id
    segment[0] = SEG_SPECIAL
    sentence_id[0] = new_global(GLOBAL_DELIM)

    anchors: list[int] = []
    pos = 1
    flat_end = 1 + long_budget
    truncated = 0
    all_units = special_units + doc_units
    for ui, unit in enumerate(all_units):
        is_special = ui < len(special_units)
        if len(unit) > long_budget:
            raise ValueError(f"unit {ui} has {len(unit)} tokens, over the long budget")
        if pos + len(unit) > flat_end:
            if is_special:
                raise ValueError("special units alone exceed the long budget")
            truncated = len(all_units) - ui
            break
        gid = new_global(GLOBAL_SPECIAL if is_special else GLOBAL_DOC)
        if not is_special or ui < candidate_special_count:
            anchors.append(pos)
        long_ids[pos: pos + len(unit)] = unit
        segment[pos: pos + len(unit)] = SEG_SPECIAL if is_special else SEG_DOC
        sentence_id[pos: pos + len(unit)] = gid
        pos += len(unit)

    sep1 = flat_end
    long_ids[sep1] = sep_id
    segment[sep1] = SEG_SPECIAL
    sentence_id[sep1] = new_global(GLOBAL_DELIM)

    sum_start = sep1 + 1
    sum_end = sum_start + summary_budget
    pos = sum_start
    long_ids[pos] = beg_id
    segment[pos] = SEG_SUM
    sentence_id[pos] = new_global(GLOBAL_SPECIAL)
    pos += 1

    truncated_plan = 0
    current_gid = None
    for pi, unit in enumerate(plan_units):
        if pos + len(unit) > sum_end:
            truncated_plan = len(plan_units) - pi
            break
        if current_gid is None:
            current_gid = new_global(GLOBAL_SUM)
        long_ids[pos: pos + len(unit)] = unit
        segment[pos: pos + len(unit)] = SEG_SUM
        sentence_id[pos: pos + len(unit)] = current_gid
        pos += len(unit)
        if len(unit) == 1 and unit[0] == eos_id:
            current_gid = None

    long_ids[sum_end] = sep_id
    segment[sum_end] = SEG_SPECIAL
    sentence_id[sum_end] = new_global(GLOBAL_DELIM)

    warnings = []
    if truncated:
        warnings.append(f"dropped {truncated} trailing document units over long_budget")
    if truncated_plan:
        warnings.append(f"dropped {truncated_plan} trailing plan elements over summary_budget")

    return PaddedAssembly(
        long_ids=long_ids,
        sentence_id=sentence_id,
        segment=segment,
        global_count=len(globals_kind),
        global_kind=np.asarray(globals_kind, dtype=np.int64),
        candidate_anchor=np.asarray(anchors, dtype=np.int64),
        truncated_doc_units=truncated,
        truncated_plan_elements=truncated_plan,
        warnings=warnings,
    )
