"""Core types shared across the package: content plans, and the field types
that declare each input row kind. A field type reads a JSON value at a path
in its row; a value of another type is never coerced but raises ``RowError``
naming the path, as in ``'home.stats.TEAM-PTS' must be a string``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class RecordRef:
    """One table cell: who it is about, what it measures, and the raw value.

    Equality is field-wise, so two refs match only when entity, type and
    value all agree.
    """

    entity: str
    type: str
    value: str = ""


UNIT = "unit"
SENTENCE_BREAK = "break"
END_OF_PLAN = "end"


@dataclass(frozen=True)
class PlanStep:
    """One element of a content plan.

    ``kind`` is one of ``unit`` (a content unit, carrying its index and, for
    table tasks, the underlying record), ``break`` (a sentence boundary) or
    ``end`` (terminates the plan; nothing may follow it).
    """

    kind: str
    unit: int | None = None
    record: RecordRef | None = None

    def __post_init__(self) -> None:
        if self.kind not in (UNIT, SENTENCE_BREAK, END_OF_PLAN):
            raise ValueError(f"unknown plan step kind: {self.kind!r}")
        if self.kind == UNIT and self.unit is None:
            raise ValueError("unit steps need a unit index")
        if self.kind != UNIT and self.unit is not None:
            raise ValueError(f"{self.kind} steps must not carry a unit index")

    @property
    def is_end(self) -> bool:
        return self.kind == END_OF_PLAN

    @property
    def is_break(self) -> bool:
        return self.kind == SENTENCE_BREAK


def unit_step(index: int, record: RecordRef | None = None) -> PlanStep:
    return PlanStep(UNIT, unit=index, record=record)


BREAK_STEP = PlanStep(SENTENCE_BREAK)
END_STEP = PlanStep(END_OF_PLAN)


def validate_plan(steps: list[PlanStep]) -> None:
    """Reject plans that continue past their end marker."""
    for pos, step in enumerate(steps):
        if step.is_end and pos != len(steps) - 1:
            raise ValueError(f"plan continues after end marker at position {pos}")


class RowError(ValueError):
    def __init__(self, path: tuple, want: str | None):
        path = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path).lstrip(".")
        super().__init__(f"row has no '{path}' field" if want is None  # a required field
                         else f"'{path}' must be {want}")


def _of_type(kind: type, want: str) -> Callable:
    def read(value, path=()):
        if type(value) is not kind:  # so JSON true and false are not integers
            raise RowError(path, want)
        return value
    return read


string, integer = _of_type(str, "a string"), _of_type(int, "an integer")
_list, _object = _of_type(list, "a list"), _of_type(dict, "an object")


def list_of(read: Callable) -> Callable:
    def read_list(value, path=()):
        return [read(v, path + (i,)) for i, v in enumerate(_list(value, path))]
    return read_list


def map_of(read: Callable) -> Callable:
    """An object with any field names, and values of type ``read``."""
    def read_map(value, path=()):
        return {k: read(v, path + (k,)) for k, v in _object(value, path).items()}
    return read_map


def fields(declared: dict[str, Callable]) -> Callable:
    """An object's fields and their types; a name ending in ``?`` may be left
    out, and an undeclared field is not read."""
    spec = [(name.rstrip("?"), name.endswith("?"), read) for name, read in declared.items()]
    def read_fields(value, path=()):
        _object(value, path)
        out = {}
        for key, optional, read in spec:
            if key in value:
                out[key] = read(value[key], path + (key,))
            elif not optional:
                raise RowError(path + (key,), None)
        return out
    return read_fields


def tokens(value, path=()) -> list[str]:
    """A list of tokens, lowercased."""
    try:
        return [t.lower() for t in _list(value, path)]
    except AttributeError:  # a token that is not a string
        return list_of(string)(value, path)  # raises, naming it


def sentences(value, path=()) -> list[list[str]]:
    """A list of sentences, each a list of tokens, lowercased."""
    if type(value) is not list or not all(type(s) is list for s in value):
        raise RowError(path, "a list of sentences, each a list of tokens")
    return list_of(tokens)(value, path)

