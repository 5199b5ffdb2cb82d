"""The golden forced-bits corpus (``tools/forced_bits.py``): every forced
quadrature case keeps the bits of its values and error estimate, and
every depth-1 product built with fast paths on keeps its tag and, for a
closed form, its bits."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "forced_bits.py"


def _tool():
    spec = importlib.util.spec_from_file_location("forced_bits", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_forced_bits_match_golden():
    tool = _tool()
    want = json.loads(tool.GOLDEN.read_text())
    got = tool.compute()
    assert sorted(got) == sorted(want)
    moved = [k for k in want if got[k] != want[k]]
    assert not moved, [(k, want[k], got[k]) for k in moved[:5]]
    # the corpus reaches quadrature on the cases it was built for, and none raises
    assert sum(k.startswith("depth1 ") for k in got) == 7 * 7 * 11
    assert all(v["error"] is not None for k, v in got.items() if "tag" not in v)
    # each depth-1 product once more unforced: a closed form keeps bits, none its tag
    unforced = {k: v for k, v in got.items() if k.startswith("unforced depth1 ")}
    assert len(unforced) == 7 * 7 * 11
    for k, v in unforced.items():
        assert set(v) == {"tag"} if v["tag"] == "none" else v["error"] is not None, k
