"""``tools/memory_probe.py`` at tiny sizes: a desk ``etc`` training step's
tape, and a taped feed-forward sublayer that keeps no hidden array."""

import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "memory_probe.py"


def test_probe_prints_tape_and_peaks():
    proc = subprocess.run([sys.executable, str(TOOL), "--workloads", "docs-etc", "--rows", "4"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    ffn_at = lines.index("feed_forward [4 x 768] -> 3072 -> 768")
    step = lines[lines.index("docs-etc seed 3 round 0, first training step"):ffn_at]
    nodes = {ln.split()[0]: ln.split()[1] for ln in step[2:-2]}
    assert (nodes["feed_forward"], nodes["total"]) == ("4", "54")
    assert step[-1].startswith("  tracemalloc peak of the train command: ")
    ffn = lines[ffn_at:]
    assert ffn[2].split()[:3] == ["feed_forward", "1", "0.00"]
    assert "  traced after the forward beyond its output: 0.00 MiB" in ffn
    assert ffn[-1].startswith("  backward: ")
