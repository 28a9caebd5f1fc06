"""tools/parity_digest.py runs every workload, saves the run and finds no
difference against it."""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "parity_digest.py"


def _digest(*args: str) -> str:
    done = subprocess.run([sys.executable, str(TOOL), "--workload", "all", "--seeds", "1",
                           "--blocks", "1", *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_parity_digest_saves_and_matches_every_workload(tmp_path):
    saved = tmp_path / "parent.json"
    first = _digest("--save", str(saved))
    operations = int(first.split("all 3 runs: ")[1].split()[0])
    assert f"all 3 runs: {operations} operations, 0 failed checks" in first
    again = _digest("--against", str(saved))
    assert f"\n0 of {operations} operations differ" in again
    assert first.splitlines()[-1] == again.splitlines()[-2]   # the same total digest
