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
  hints 0.9e-14 apart next to a factor's hint;
* deep refinement: fgm(0.6) over the curve family fgmcurve(-1, 3) and
  fgm(0.6) on a 33x33 lattice, the clip point t = 2/3 of the family not
  given as a hint, so that the adaptive rule has to find it.

Each case is stored as a sha256 over the bytes of its values and then
its error estimate (float64, C order), or over the text of the error it
raises. Every case also keeps ``float.hex`` of its first value and of
its error estimate, so that a mismatch can be read.

The kernel section pins the conditionals and the shuffle cdf
themselves. It stores ``_d1`` and ``_d2`` of M, W, Pi, two FGM
copulas, ten shuffles, two grids and the transpose of each at their
special points: 0, 1, the float below 1, 0.5, every shuffle cut and
strip end, and every grid cell edge. Each kernel is evaluated on a
(k, 1) column against a (1, k) row, both ways, and on full (k, k)
arrays, both ways. The section also stores ``ShuffleOfM._cdf`` of
eleven shuffles, up to 1,024 pieces, at scattered points: u at every
cut and strip end and its float neighbours, repeated up to 1,024
points, and v drawn from the strip and slot ends. So many points take
the cdf's piece loop. A kernel entry is a sha256 over the bytes of its
values and ``float.hex`` of its first value.

The corpus also pins the dispatch: each of the 539 depth-1 products
built with fast paths on keeps its ``fast_path`` tag, and a closed form
keeps the bits of its ``.copula.eval`` values on the 9x9 lattice and
its ``error_estimate``, stored as above. A product tagged ``none`` is
the forced product, whose bits the forced case already holds, so it
keeps its tag alone: these entries list the depth-1 products that no
closed form reaches.

The poly section pins the exact polynomial products: the closed-form
cases of ``tests/test_poly.py``, the fgm*fgm, split-sign and fgmcurve
steps of the lattice-products benchmark for the pass-0 inputs of seed 1,
a product with a transposed factor, and two products at
``poly.MAX_DEGREE``, of degrees (16, 8) and (16, 16). Each entry is a
sha256 over the bytes of the float coefficients ``_c`` and of the
partials' ``_c1`` and ``_c2``, ``float.hex`` of the first nonzero entry
of each (the first entry of all three is 0), the degree, and a sha256
over ``str(coeffs)``, the exact coefficients.

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

    # deep refinement: the clip point of theta at t = 2/3 is no hint
    class Unhinted(c.FGMCurveFamily):
        def breakpoints(self):
            return ()

    fgm6 = c.FGMCopula(0.6)
    out.append(("refined fgm(0.6) *fgmcurve(-1, 3) fgm(0.6) unhinted 33x33",
                 forced(fgm6, Unhinted((-1.0, 3.0)), fgm6)) + lattice33)

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


# the shuffles of the kernel section: the running flipped example and
# eight drawn once at random, written out here
_FLIP = ((0.0, 0.2, 0.7, 1.0), (3, 1, 2), (0, 1, 0))
_DRAWN = (
    ((0.0, 0.9464657804460633, 1.0), (2, 1), (0, 1)),
    ((0.0, 0.08240794388130823, 0.2862966041661704, 0.4382800473034214,
      0.8136611230389795, 0.9848034752375554, 1.0), (5, 4, 1, 2, 3, 6), (1, 0, 1, 1, 0, 0)),
    ((0.0, 0.53834323407629, 0.7371502226207836, 0.9927606888483627, 1.0),
     (4, 2, 3, 1), (0, 1, 1, 0)),
    ((0.0, 0.0515388294743615, 0.5477017956423661, 0.5527524153948293, 1.0),
     (2, 3, 4, 1), (1, 1, 0, 0)),
    ((0.0, 0.12472133330591129, 0.4778900309019434, 0.7326514668471766, 1.0),
     (2, 3, 1, 4), (0, 0, 0, 0)),
    ((0.0, 0.2677700742588114, 0.3716436351591228, 0.5298119827496722,
      0.8748696622696762, 1.0), (3, 4, 1, 2, 5), (0, 1, 1, 1, 1)),
    ((0.0, 1.0), (1,), (0,)),
    ((0.0, 0.9285460335053835, 1.0), (2, 1), (0, 0)),
)


def _shuffle(c, cuts, sigma, flips):
    return c.ShuffleOfM(cuts, sigma, [bool(f) for f in flips])


def _kernel_copulas(c):
    """(name, copula, points) of the kernel section: each copula at its
    special points, then each transpose at the same points."""
    base = np.asarray([0.0, 1.0, np.nextafter(1.0, 0.0), 0.5, 0.8647975870165865,
                       0.855302514932059, 0.8110233987843422, 0.2614463614164766])
    flip = _shuffle(c, *_FLIP)
    out = [(name, C, base) for name, C in (
        ("M", c.M), ("W", c.W), ("Pi", c.PI), ("fgm(0.7)", c.FGMCopula(0.7)),
        ("fgm(-1)", c.FGMCopula(-1.0)))]
    shuffles = [("flip shuffle", flip), ("straight(0.3)", c.StraightShuffle(0.3))]
    shuffles += [(f"drawn shuffle {i}", _shuffle(c, *s)) for i, s in enumerate(_DRAWN, 1)]
    for name, S in shuffles:
        out.append((name, S, np.concatenate((S._s0, S._s0 + S._w, S._t0, S._t1, base))))
    for name, g in (("grid8(flip shuffle)", c.grid_from_copula(flip, 8)),
                    ("grid5(fgm(0.8))", c.grid_from_copula(c.FGMCopula(0.8), 5))):
        out.append((name, g, np.concatenate((np.arange(g.n + 1) / g.n, base))))
    return out + [(f"t({name})", c.TransposedCopula(C), pts) for name, C, pts in out]


def _cdf_shuffles(c):
    """(name, shuffle, u, v) of the kernel section's cdf entries."""
    rng = np.random.default_rng(22)
    shuffles = [("shuffle1024", c.shuffle_from_grid(c.grid_from_copula(c.FGMCopula(0.7), 32))),
                ("straight(0.3)", c.StraightShuffle(0.3))]
    for n in (1, 2, 3, 5, 8, 13, 30, 64, 100):
        cuts = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]))
        shuffles.append((f"drawn shuffle of {n}",
                         c.ShuffleOfM(cuts, rng.permutation(n) + 1, rng.random(n) < 0.5)))

    def around(x):
        # x, its float neighbours, -0, 0 and 1, inside [0, 1]
        x = np.concatenate((x, [0.0, 1.0]))
        x = np.concatenate((x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)))
        return np.concatenate(([-0.0], np.unique(np.clip(x, 0.0, 1.0))))

    out = []
    for name, S in shuffles:
        # at least 1,024 points, as many as take the piece loop for any
        # number of pieces
        u = around(np.concatenate((S._s0, S._s0 + S._w)))
        u = np.resize(u, max(u.size, 1024))
        vs = around(np.concatenate((S._t0, S._t1, S._tcuts)))
        out.append((name, S, u, rng.choice(vs, u.size)))
    return out


def kernel_cases():
    """(name, values) of the kernel section: ``values`` is a function of
    no arguments that returns the arrays the entry pins."""
    c = _import_copulalg()
    out = []
    for name, C, pts in _kernel_copulas(c):
        col, row = pts.reshape(-1, 1), pts.reshape(1, -1)
        full_col, full_row = np.repeat(col, pts.size, axis=1), np.repeat(row, pts.size, axis=0)
        pairs = ((col, row), (row, col), (full_col, full_row), (full_row, full_col))
        for kernel in ("d1", "d2"):
            f = getattr(C, f"_{kernel}")
            out.append((f"kernel {name} {kernel}",
                        lambda f=f, pairs=pairs: [f(u, v) for u, v in pairs]))
    for name, S, u, v in _cdf_shuffles(c):
        out.append((f"kernel {name} cdf scattered", lambda S=S, u=u, v=v: [S._cdf(u, v)]))
    return out


def poly_cases():
    """(name, product) of the poly section: ``product`` is a function of
    no arguments that builds the PolyCopula."""
    c = _import_copulalg()
    fgm, const = c.FGMCopula, c.ConstantFamily

    def split(theta):
        return c.PiecewiseConstantFamily((0.5,), (fgm(theta), fgm(-theta)))

    def built(A, F, B):
        def product():
            r = c.star(A, B) if F is None else c.star_c(A, F, B)
            if r.fast_path != "poly-closed-form":
                raise ValueError(f"not a polynomial product: {r.fast_path}")
            return r.copula
        return product

    # clipped to 1 from t = 2/3 on, and never clipped
    clipped, unclipped = c.FGMCurveFamily((-1.0, 3.0)), c.FGMCurveFamily((0.2, -0.5, 0.4))
    pw = c.PiecewiseConstantFamily((0.25, 0.6), (fgm(1.0), c.PI, fgm(-0.8)))
    inner = c.star_c(fgm(1.0), const(fgm(0.5)), fgm(-1.0)).copula
    # degree (4, 4), then (8, 4), over clipped and unclipped curves
    P4 = c.star_c(fgm(0.7), clipped, fgm(-0.9)).copula
    P8 = c.star_c(P4, unclipped, fgm(0.35)).copula
    cap = c.FGMCurveFamily((-0.9, 2.7))
    products = (
        ("star", fgm(0.7), None, fgm(-0.4)),
        ("const", fgm(1.0), const(fgm(0.5)), fgm(-1.0)),
        ("const Pi", fgm(0.3), const(c.PI), fgm(0.9)),
        ("pw", fgm(0.6), pw, fgm(0.5)),
        ("fgmcurve clipped", fgm(0.6), clipped, fgm(0.6)),
        ("fgmcurve unclipped", fgm(-0.9), unclipped, fgm(-0.7)),
        ("nested", inner, const(fgm(-1.0)), fgm(0.5)),
        ("transposed nested", c.TransposedCopula(inner), pw, c.PI),
        # the lattice-products benchmark's closed-form steps, pass 0 of seed 1
        ("lattice-products seed 1 fgm*fgm", fgm(-0.461), None, fgm(0.937)),
        ("lattice-products seed 1 split-sign", fgm(0.336), split(0.336), c.PI),
        ("lattice-products seed 1 fgmcurve", fgm(0.912),
         c.FGMCurveFamily((-0.273, -0.275)), fgm(0.457)),
        ("fgm * transposed split-sign", fgm(0.3), None, c.TransposedCopula(
            c.star_c(fgm(0.336), split(0.336), c.PI).copula)),
        ("degree (16, 8)", P8, cap, c.TransposedCopula(P4)),
        ("degree (16, 16)", P8, cap, c.TransposedCopula(P8)),
    )
    return [(f"poly {name}", built(A, F, B)) for name, A, F, B in products]


def poly_digest(product):
    """{sha256, first, degree, coeffs} of one poly entry."""
    P = product()
    arrays = (P._c, P._c1, P._c2)
    return {"sha256": _sha256(arrays),
            "first": [float(a[a != 0][0]).hex() for a in arrays],
            "degree": list(P.degree),
            "coeffs": hashlib.sha256(str(P.coeffs).encode()).hexdigest()}


def _sha256(arrays):
    return hashlib.sha256(b"".join(
        np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays)).hexdigest()


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
    return {"sha256": _sha256([vals, err]), "first": float(np.reshape(vals, -1)[0]).hex(),
            "error": float(err).hex()}


def kernel_digest(values):
    """{sha256, first} of one kernel entry."""
    arrays = values()
    return {"sha256": _sha256(arrays), "first": float(arrays[0].reshape(-1)[0]).hex()}


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
    got.update((name, kernel_digest(values)) for name, values in kernel_cases())
    got.update((name, poly_digest(product)) for name, product in poly_cases())
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
