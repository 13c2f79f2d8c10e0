"""simfd's reproducible outputs still hash to the committed digests.

`tools/fingerprint.py` digests the checkpoints, histories, report rows, the
gradient check and the physics dumps of fixed runs (see its docstring). A
change that moves any of them by one bit fails here; one that moves them on
purpose rewrites `tests/data/fingerprint.json` with the script's output.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINT = ROOT / "tools" / "fingerprint.py"
EXPECTED = Path(__file__).parent / "data" / "fingerprint.json"


def load_fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", FINGERPRINT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_committed_digests():
    want = json.loads(EXPECTED.read_text())
    got = load_fingerprint().fingerprint()
    moved = sorted(name for name in want.keys() | got.keys()
                   if want.get(name) != got.get(name))
    assert moved == []
