"""``tools/same_outputs.py``, the byte-identity check between two checkouts."""

import importlib.util
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_checkout_matches_itself():
    """One docs-hibert round: both oracle outputs, train's output, the
    decoded plans, the eval record and the best and last checkpoints' payloads."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workloads", "docs-hibert",
         "--seeds", "3", "--rounds", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "7 identical, 0 differ"


def test_differing_names_changed_and_one_sided_outputs():
    a = {"x": "1", "y": "2", "z": "3"}
    b = {"x": "1", "y": "9", "w": "4"}
    assert _tool().differing(a, b) == ["w", "y", "z"]
    assert _tool().differing(a, dict(a)) == []


def test_params_within_tolerance_pass_and_others_still_differ():
    """One docs-hibert round against itself passes with a tolerance too; the
    tolerance names the largest ``params.bin`` difference it saw."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workloads", "docs-hibert",
         "--seeds", "3", "--rounds", "1", "--params-atol", "1e-12"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["params.bin: largest difference 0, tolerance 1e-12",
                                            "7 identical, 0 within 1e-12, 0 differ"]


def test_params_difference_reads_tensors_by_name(tmp_path):
    from stepsum.autodiff import Tensor
    from stepsum.checkpoint import save_checkpoint
    from stepsum.config import config_from_dict

    cfg = config_from_dict({})
    tool = _tool()

    def save(name, tensors):
        save_checkpoint(str(tmp_path / name), {k: Tensor(v) for k, v in tensors.items()},
                        cfg, ["a", "b"])
        return str(tmp_path / name / "params.bin")

    base = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3)}
    a = save("a", base)
    assert tool.params_difference(a, save("same", base)) == 0.0
    nudged = {"w": base["w"].copy(), "b": base["b"] + np.array([0.0, 3e-13, -1e-13])}
    nudged["w"][1, 2] -= 2e-13
    assert tool.params_difference(a, save("nudged", nudged)) == np.abs(
        nudged["b"] - base["b"]).max()
    assert tool.params_difference(a, save("reshaped", {"w": base["w"].T, "b": base["b"]})) \
        == float("inf")
    assert tool.params_difference(a, save("renamed", {"v": base["w"], "b": base["b"]})) \
        == float("inf")
