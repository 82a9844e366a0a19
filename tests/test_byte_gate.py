"""The byte gate (tools/byte_gate.py) as a test: the reference commands must
write the recorded artifact bytes.  On a NumPy or OpenBLAS build other than
the recorded one the tool reports "not comparable" and exits 0."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_byte_gate_check_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "byte_gate.py"), "--check"],
                          cwd=ROOT, capture_output=True, text=True, check=False, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
