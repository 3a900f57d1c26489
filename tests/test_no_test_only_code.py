"""Guard: no top-level function or class in ``src/stepsum`` lives only for tests.

A name counts as used when some module of the package refers to it, as a
bare name, an attribute or an imported name. The few names that only tests
or the benchmark reach stay on the allowlist below, each with its reason.
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


def test_allowlist_is_current():
    defined, used = _definitions_and_uses()
    outside = "".join(p.read_text(encoding="utf-8")
                      for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")
                      if p.name != pathlib.Path(__file__).name)
    for name in ALLOWED:
        assert name in defined, f"{name} is gone; drop it from the allowlist"
        assert name not in used, f"{name} is used by the package; drop it from the allowlist"
        assert name in outside, f"nothing outside the package uses {name}"
