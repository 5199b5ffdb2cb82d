"""The golden forced-bits corpus (``tools/forced_bits.py``): every forced
quadrature case keeps the bits of its values and error estimate, every
depth-1 product built with fast paths on keeps its tag and, for a
closed form, its bits, every kernel entry keeps the bits of its
conditionals or shuffle cdf, and every poly entry the bits of its exact
and float coefficients."""

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
    # one line per moved entry, as a string: pytest cuts a list's repr short
    assert not moved, "\n".join(f"{k}: {want[k]} -> {got[k]}" for k in moved)
    # the corpus reaches quadrature on the cases it was built for, and none raises
    assert sum(k.startswith("depth1 ") for k in got) == 7 * 7 * 11
    kernels = {k: v for k, v in got.items() if k.startswith("kernel ")}
    polys = {k: v for k, v in got.items() if k.startswith("poly ")}
    assert all(v["error"] is not None for k, v in got.items()
               if "tag" not in v and k not in kernels and k not in polys)
    # the deep-refinement case, whose clip point the rule finds unhinted
    assert sum(k.startswith("refined ") for k in got) == 1
    # the kernel section: d1 and d2 of 17 copulas and their transposes,
    # and the cdf of 11 shuffles on the piece loop
    assert sum(k.endswith((" d1", " d2")) for k in kernels) == 2 * 17 * 2
    assert sum(k.endswith(" cdf scattered") for k in kernels) == 11 == len(kernels) - 68
    assert all(set(v) == {"sha256", "first"} for v in kernels.values())
    # the poly section: 14 exact products, two of them at the degree cap
    assert len(polys) == 14
    assert all(set(v) == {"sha256", "first", "degree", "coeffs"} for v in polys.values())
    assert sum(max(v["degree"]) == 16 for v in polys.values()) == 2
    # each depth-1 product once more unforced: a closed form keeps bits, none its tag
    unforced = {k: v for k, v in got.items() if k.startswith("unforced depth1 ")}
    assert len(unforced) == 7 * 7 * 11
    for k, v in unforced.items():
        assert set(v) == {"tag"} if v["tag"] == "none" else v["error"] is not None, k
