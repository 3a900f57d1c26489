"""``tools/same_outputs.py``, the byte-identity check between two checkouts."""

import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_checkout_matches_itself():
    """One docs-hibert round: both oracle outputs, train's output, the
    decoded plans, the eval record and the best checkpoint's payload."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workloads", "docs-hibert",
         "--seeds", "3", "--rounds", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "6 identical, 0 differ"


def test_differing_names_changed_and_one_sided_outputs():
    a = {"x": "1", "y": "2", "z": "3"}
    b = {"x": "1", "y": "9", "w": "4"}
    assert _tool().differing(a, b) == ["w", "y", "z"]
    assert _tool().differing(a, dict(a)) == []
