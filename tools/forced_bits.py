"""The golden forced-bits corpus: forced-quadrature products and their bits.

Every forced case is a product evaluated by adaptive quadrature
(``fast_paths=False``) at a set of points through ``eval_with_error``.
The forced cases are:

* the depth-1 corpus: 7 atoms (M, W, Pi, fgm(0.5), straight(0.3), the
  3-piece flipped shuffle and grid8) as both factors, over no family
  (the classical product) or one of ten families, 539 products, each on
  a 9x9 lattice;
* the forced shuffle * fgm step of the lattice-products benchmark on a
  33x33 lattice, for the pass-0 inputs of seeds 1, 2 and 3;
* scattered points, a single point and a constant-x column;
* one-ulp pieces (family cuts at 0.5 and the next float) and a chain of
  hints 0.9e-14 apart next to a factor's hint.

Each case is stored as a sha256 over the bytes of its values and then
its error estimate (float64, C order), or over the text of the error it
raises. Every case also keeps ``float.hex`` of its first value and of
its error estimate, so that a mismatch can be read.

The corpus also pins the dispatch: each of the 539 depth-1 products
built with fast paths on keeps its ``fast_path`` tag, and a closed form
keeps the bits of its ``.copula.eval`` values on the 9x9 lattice and
its ``error_estimate``, stored as above. A product tagged ``none`` is
the forced product, whose bits the forced case already holds, so it
keeps its tag alone: these entries list the depth-1 products that no
closed form reaches.

    python tools/forced_bits.py          # rewrite tests/golden/forced_bits.json
    python tools/forced_bits.py --check  # compare with it, exit 1 on a mismatch

Run from the root of a checkout; copulalg is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "forced_bits.json"


def _import_copulalg():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import copulalg
    return copulalg


def _atoms_and_families(c):
    """The depth-1 corpus's 7 atoms and 11 families, (name, object) each."""
    fgm = c.FGMCopula(0.5)
    shuffle = c.ShuffleOfM((0.0, 0.4, 0.7, 1.0), (3, 1, 2), (False, True, False))
    grid8 = c.grid_from_copula(c.FGMCopula(0.7), 8)
    atoms = (("M", c.M), ("W", c.W), ("Pi", c.PI), ("fgm(0.5)", fgm),
             ("straight(0.3)", c.StraightShuffle(0.3)),
             ("shuffle(0.4,0.7;3,1,2;0,1,0)", shuffle), ("grid8", grid8))
    families = [("none", None)]
    families += [(f"const({name})", c.ConstantFamily(C)) for name, C in atoms]
    families += [("pw(0.5: M, W)", c.PiecewiseConstantFamily((0.5,), (c.M, c.W))),
                 ("pw(0.5: fgm(0.5), grid8)",
                  c.PiecewiseConstantFamily((0.5,), (fgm, grid8))),
                 ("fgmcurve(-1, 3)", c.FGMCurveFamily((-1.0, 3.0)))]
    return atoms, families


def _depth1(c, fast_paths):
    """(name, A, family, B) of the 539 depth-1 products, ``name`` as their
    forced case is named, with the prefix ``unforced`` when ``fast_paths``
    is on."""
    atoms, families = _atoms_and_families(c)
    prefix = "unforced " if fast_paths else ""
    return [(f"{prefix}depth1 {aname} *{fname} {bname} 9x9", A, F, B)
            for fname, F in families for aname, A in atoms for bname, B in atoms]


_LATTICE9 = (np.arange(9)[:, None] / 8, np.arange(9)[None, :] / 8)


def cases():
    """(name, product, u, v) for every forced case, in a fixed order:
    ``product`` is a function of no arguments that returns the forced
    product's copula."""
    c = _import_copulalg()
    atoms, families = _atoms_and_families(c)
    fgm, shuffle, grid8 = atoms[3][1], atoms[5][1], atoms[6][1]

    def forced(A, F, B, q=None):
        if F is None:
            return lambda: c.star(A, B, q, fast_paths=False).copula
        return lambda: c.star_c(A, F, B, q, fast_paths=False).copula

    out = [(name, forced(A, F, B)) + _LATTICE9 for name, A, F, B in _depth1(c, False)]

    g33 = np.arange(33) / 32
    lattice33 = (g33[:, None], g33[None, :])
    # the lattice-products benchmark's forced step, pass-0 inputs of seeds 1-3
    for seed, cuts, sigma, flips, theta in (
            (1, (0.0, 0.179, 0.464, 1.0), (2, 1, 3), (0, 1, 1), 0.275),
            (2, (0.0, 0.253, 0.669, 1.0), (1, 3, 2), (1, 0, 0), 0.566),
            (3, (0.0, 0.291, 0.731, 1.0), (3, 2, 1), (1, 0, 0), 0.11)):
        S = c.ShuffleOfM(cuts, sigma, [bool(f) for f in flips])
        out.append((f"lattice-products seed {seed} shuffle*fgm({theta}) 33x33",
                    forced(S, None, c.FGMCopula(theta))) + lattice33)

    # repeated x with different rows, one point, and x held constant
    xs = np.asarray([0.3, 0.3, 0.7, 0.7, 0.7, 0.45, 0.3, 0.0, 1.0, 0.125])
    ys = np.asarray([0.2, 0.9, 0.2, 0.5, 0.9, 0.6, 0.6, 0.5, 0.5, 0.875])
    column = (np.full(65, 0.45), np.arange(65) / 64)
    point_sets = (("scattered", (xs, ys)), ("width 1", (np.asarray([0.3]), np.asarray([0.6]))),
                  ("constant x", column), ("constant y", column[::-1]))
    fgm_m = c.FGMCopula(-0.4)
    for name, A, F, B in (
            ("shuffle * fgm", shuffle, None, fgm),
            ("fgm * shuffle^T", fgm, None, shuffle.transpose()),
            ("grid8 * fgm", grid8, None, fgm),
            ("M *pw(M,W) fgm", c.M, families[-3][1], fgm),
            ("fgm(0.5) * fgm(-0.4)", fgm, None, fgm_m),
            ("fgm *fgmcurve fgm(-0.4)", fgm, families[-1][1], fgm_m),
            ("W *const(shuffle) fgm", c.W, c.ConstantFamily(shuffle), fgm),
            ("straight(0.3) *const(fgm) grid8", c.StraightShuffle(0.3),
             c.ConstantFamily(fgm), grid8)):
        for pname, (u, v) in point_sets:
            out.append((f"points {name} {pname}", forced(A, F, B), u, v))

    # pieces one ulp wide: family cuts at 0.5 and the float after it
    ulp = c.PiecewiseConstantFamily((0.5, np.nextafter(0.5, 1.0)), (c.PI, c.PI, c.PI))
    for name, A, B in (("fgm(0.5) * fgm(0.3)", fgm, c.FGMCopula(0.3)),
                       ("shuffle * fgm", shuffle, fgm), ("fgm * M", fgm, c.M)):
        out.append((f"one-ulp pieces {name} 33x33", forced(A, ulp, B)) + lattice33)
        out.append((f"one-ulp pieces {name} width 1", forced(A, ulp, B),
                    np.asarray([0.5]), np.asarray([0.5])))

    # a chain of hints 0.9e-14 apart after a base cut, next to a factor's
    # hint: M's hint at x is x, the shuffle's fl(t0 + x - s0), grid8's i / 8
    tiny = 0.9e-14
    for name, C, x, e in (("M", c.M, 0.25 + 9 * tiny, 0.25),
                          ("shuffle", shuffle, 0.7 + 0.03125 + 9 * tiny, 0.53125),
                          ("grid8", grid8, 0.4, 0.375)):
        chain = tuple(e + k * tiny for k in range(1, 9)) + (e + 1e-11,)
        family = c.PiecewiseConstantFamily(chain, (c.FGMCopula(-1.0),) * (len(chain) + 1))
        u = np.asarray([x, np.nextafter(x, 0.0), np.nextafter(x, 1.0), 0.5])
        v = np.linspace(0.0, 1.0, 5)
        out.append((f"hint chain {name} left", forced(C, family, fgm),
                    u[:, None], v[None, :]))
        out.append((f"hint chain {name} right", forced(fgm, family, C.transpose()),
                    v[:, None], u[None, :]))
    return out


def digest(values):
    """{sha256, first, error} of one case: ``values`` is a function of no
    arguments that returns its (values, error estimate), or of the error
    it raises."""
    try:
        vals, err = values()
    except Exception as exc:  # the error is part of the bits
        text = f"{type(exc).__name__}: {exc}"
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "first": text,
                "error": None}
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    err = np.float64(err)
    return {"sha256": hashlib.sha256(vals.tobytes() + err.tobytes()).hexdigest(),
            "first": float(vals.reshape(-1)[0]).hex(), "error": float(err).hex()}


def unforced(c, A, F, B):
    """The depth-1 product's entry with fast paths on: its tag, and the
    bits of a closed form (``digest``)."""
    res = c.star(A, B) if F is None else c.star_c(A, F, B)
    if res.fast_path == "none":
        return {"tag": res.fast_path}
    return {"tag": res.fast_path,
            **digest(lambda: (res.copula.eval(*_LATTICE9), res.error_estimate))}


def compute():
    c = _import_copulalg()
    got = {name: digest(lambda: p().eval_with_error(u, v)) for name, p, u, v in cases()}
    got.update((name, unforced(c, A, F, B)) for name, A, F, B in _depth1(c, True))
    return got


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the golden file instead of writing it")
    args = ap.parse_args(argv)
    got = compute()
    if not args.check:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} cases to {GOLDEN.relative_to(ROOT)}")
        return 0
    want = json.loads(GOLDEN.read_text())
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    for k in moved:
        print(f"moved: {k}: {want.get(k)} -> {got.get(k)}")
    print(f"{len(got) - len(moved)} of {len(got)} cases keep their bits")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
