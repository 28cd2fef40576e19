"""Every demo prints exactly the output it printed when its hash was recorded.

The demos run end to end through the public API, so a byte-identical stdout
is a cheap check that a refactor changed no answer.  A deliberate change to a
demo or to its output means recording the new hash here.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_two_schemes.py": "043d5de0c7eb0a309575a515f91376f88da31501b38e8b18cd261df0ff1975b3",
    "02_weighted_family.py": "35727fb816e08e5e446729d67a1eceb2abb1a8ad2076c067925256d722524300",
    "03_stability.py": "b46cffaa55689d919542d5b3bb8fd155dcd09884dcd825c35411321259dfb58b",
    "04_property_scan.py": "981433179d0cea8a4c9064239688840760e9c54faf7a484b83bc8525e47f9fe2",
    "05_claims_view.py": "20888cfe7cff5e3b58f9ff42d2a1392a31d9631e6c59045855e475325b76efcd",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_output_is_pinned(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            capture_output=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo]
