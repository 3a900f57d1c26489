"""Guard: no top-level function or class in ``src/stepsum``, and no field of
a package dataclass, lives only for tests; and no module reads the
environment.

A name counts as used when some module of the package refers to it, as a
bare name, an attribute or an imported name. A dataclass field counts as
read when some module of the package reads an attribute of that name. The
few names and fields that only tests or the benchmark reach, or that the
package needs without reading them, stay on the allowlists below, each with
its reason.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stepsum"

ALLOWED = {
    "gold_plan": "test fixture: the overfit corpus's reference plans (criterion 4)",
    "make_overfit_corpus": "test fixture: the synthetic corpus of criterion 4 and the CLI tests",
    "next_step_accuracy": "test reference: the accuracy criterion 4 gates on",
}

FIELDS_ALLOWED = {
    "_Node.out_ref": "keeps the op's output alive, so its id (out_id) stays unique "
                     "while its node is on the tape",
    "GradMismatch.analytic": "the mismatch report: criterion 1's failure detail prints it "
                             "through the dataclass repr",
    "GradMismatch.numeric": "the mismatch report, as GradMismatch.analytic",
    "GradMismatch.rel_error": "the mismatch report, as GradMismatch.analytic",
    "OracleResult.trace": "the greedy oracle's per-step scores, which the tests compare "
                          "step by step against the rescore-everything reference",
    "TrainResult.history": "the exact loss curve, which the seed-repeat test compares "
                           "bit for bit (the log rounds it)",
    "TrainResult.steps_run": "the stop step that criterion 4 gates on and reports",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _fields_and_reads():
    fields: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields[f"{node.name}.{item.target.id}"] = path.name
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return fields, read


def _definitions_and_uses():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return defined, used


def test_every_top_level_name_is_used_by_the_package():
    defined, used = _definitions_and_uses()
    unused = {name: module for name, module in defined.items() if name not in used}
    stray = sorted(f"{module}: {name}" for name, module in unused.items()
                   if name not in ALLOWED)
    assert not stray, f"only tests keep these alive; delete them or use them: {stray}"


def test_every_dataclass_field_is_read_by_the_package():
    fields, read = _fields_and_reads()
    unread = sorted(f"{module}: {field}" for field, module in fields.items()
                    if field.split(".")[1] not in read and field not in FIELDS_ALLOWED)
    assert not unread, f"no package code reads these fields; delete them or read them: {unread}"


def test_allowlist_is_current():
    defined, used = _definitions_and_uses()
    outside = "".join(p.read_text(encoding="utf-8")
                      for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")
                      if p.name != pathlib.Path(__file__).name)
    for name in ALLOWED:
        assert name in defined, f"{name} is gone; drop it from the allowlist"
        assert name not in used, f"{name} is used by the package; drop it from the allowlist"
        assert name in outside, f"nothing outside the package uses {name}"
    fields, read = _fields_and_reads()
    for field in FIELDS_ALLOWED:
        assert field in fields, f"{field} is gone; drop it from the allowlist"
        assert field.split(".")[1] not in read, (
            f"the package reads {field}; drop it from the allowlist")


def test_no_module_reads_the_environment():
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                readers.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                readers += [f"{path.name}:{node.lineno}" for alias in node.names
                            if alias.name in ("environ", "getenv")]
    assert not readers, f"commands take settings from their config and flags: {readers}"
