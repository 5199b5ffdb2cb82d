"""Expression language for copulas, families, and their products.

Grammar (LL(1), whitespace insignificant):

    expr   := "M" | "W" | "Pi" | "fgm(" num ")" | "straight(" num ")"
            | "shuffle(" [numlist] ";" intlist ";" intlist ")"
            | "grid(" path ")" | "t(" expr ")"
            | "star(" expr "," expr ")" | "starc(" expr "," family "," expr ")"
    family := "const(" expr ")" | "pw(" [numlist] ":" exprlist ")"
            | "fgmcurve(" ["poly" ":"] numlist ")"
    num    := decimal literal; lists are comma-separated
    path   := quoted string (bare paths without delimiters also accepted)

``pw`` cuts may be given interior-only (one fewer than members, so a
one-member family has an empty list) or with the 0 and 1 endpoints
included. ``shuffle`` cuts are interior-only, so a one-piece shuffle
has an empty list, ``shuffle(; 1; 0)``. ``parse``/``parse_family``
produce an AST; ``to_text`` prints the canonical form (quoted paths,
interior-only cuts, repr-exact numbers); ``build_copula``/
``build_family`` construct the numerical objects, and ``expr_of`` maps
an object back to the AST that builds it.
This module is the one place that spells the syntax: report labels
are ``to_text(expr_of(x), num)`` with a shorter number format.

Syntax problems raise ``ParseError`` carrying a 1-based column, and so
does parenthesis nesting deeper than ``MAX_NESTING``; value and arity
problems found while building raise ``SemanticError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .copulas import (
    CopulaError,
    ConstructionError,
    DomainError,
    FGMCopula,
    FrechetM,
    FrechetW,
    GridCopula,
    M,
    PI,
    ProductPi,
    ShuffleOfM,
    StraightShuffle,
    TransposedCopula,
    W,
    read_grid_csv,
)
from .families import ConstantFamily, FGMCurveFamily, PiecewiseConstantFamily
from .poly import PolyCopula
from .products import QuadratureConfig, star, star_c

__all__ = [
    "ParseError",
    "SemanticError",
    "parse",
    "parse_family",
    "to_text",
    "expr_of",
    "build_copula",
    "build_family",
    "Atom",
    "Fgm",
    "Straight",
    "Shuffle",
    "Grid",
    "Transpose",
    "Star",
    "StarC",
    "Const",
    "Pw",
    "FgmCurve",
    "Opaque",
]


class ParseError(CopulaError, ValueError):
    """Syntax error with a 1-based column and the expected tokens."""

    def __init__(self, column: int, expected, found: str):
        self.column = column
        self.expected = tuple(expected)
        self.found = found
        want = " or ".join(self.expected)
        super().__init__(f"column {column}: expected {want}, found {found}")


class SemanticError(CopulaError, ValueError):
    """A syntactically valid expression with invalid values or arity."""


# AST nodes; frozen tuples make equality and hashing structural.

@dataclass(frozen=True)
class Atom:
    name: str  # "M" | "W" | "Pi"


@dataclass(frozen=True)
class Fgm:
    theta: float


@dataclass(frozen=True)
class Straight:
    alpha: float


@dataclass(frozen=True)
class Shuffle:
    cuts: tuple  # interior cut points
    sigma: tuple
    flips: tuple


@dataclass(frozen=True)
class Grid:
    path: str


@dataclass(frozen=True)
class Transpose:
    child: object


@dataclass(frozen=True)
class Star:
    left: object
    right: object


@dataclass(frozen=True)
class StarC:
    left: object
    family: object
    right: object


@dataclass(frozen=True)
class Const:
    member: object


@dataclass(frozen=True)
class Pw:
    cuts: tuple  # as written; may include the 0/1 endpoints
    members: tuple


@dataclass(frozen=True)
class FgmCurve:
    coeffs: tuple


@dataclass(frozen=True)
class Opaque:
    name: str  # label of an object with no source text; never parsed


_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_BARE_PATH = re.compile(r"[^(),;:\"\s]+")

# the deepest nesting of parentheses an expression may have: the parser,
# build_copula, expr_of and to_text recurse once or twice per level, and
# this keeps them far inside Python's default recursion limit of 1000
MAX_NESTING = 200


class _Scanner:
    """Cursor over the source text; tokens are pulled on demand."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def col(self) -> int:
        return self.pos + 1

    def at_end(self) -> bool:
        self._skip_ws()
        return self.pos >= len(self.text)

    def peek_char(self):
        self._skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def describe_here(self) -> str:
        ch = self.peek_char()
        return f"{ch!r}" if ch else "end of input"

    def take(self, literal: str) -> bool:
        self._skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            raise ParseError(self.col(), (f"'{literal}'",), self.describe_here())

    def open(self):
        """Take a "(" that opens one more level of nesting."""
        self.expect("(")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(self.col() - 1, (f"at most {MAX_NESTING} nested parentheses",),
                             f"'(' at depth {self.depth}")

    def close(self):
        self.expect(")")
        self.depth -= 1

    def ident(self):
        self._skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            return None
        self.pos = m.end()
        return m.group()

    def number(self) -> float:
        self._skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            raise ParseError(self.col(), ("a number",), self.describe_here())
        self.pos = m.end()
        return float(m.group())

    def integer(self) -> int:
        col = self.col()
        x = self.number()
        if not x.is_integer():
            raise ParseError(col, ("an integer",), repr(x))
        return int(x)

    def path(self) -> str:
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == '"':
            end = self.text.find('"', self.pos + 1)
            if end < 0:
                raise ParseError(self.col(), ("a closing quote",), "end of input")
            out = self.text[self.pos + 1 : end]
            self.pos = end + 1
            return out
        m = _BARE_PATH.match(self.text, self.pos)
        if not m:
            raise ParseError(self.col(), ("a path",), self.describe_here())
        self.pos = m.end()
        return m.group()


_EXPR_HEADS = ("M", "W", "Pi", "fgm", "straight", "shuffle", "grid",
               "t", "star", "starc")
_FAMILY_HEADS = ("const", "pw", "fgmcurve")


def _num_list(sc: _Scanner):
    out = [sc.number()]
    while sc.take(","):
        out.append(sc.number())
    return tuple(out)


def _int_list(sc: _Scanner):
    out = [sc.integer()]
    while sc.take(","):
        out.append(sc.integer())
    return tuple(out)


def _head(sc: _Scanner, heads):
    col = sc.col()
    head = sc.ident()
    if head not in heads:
        found = sc.describe_here() if head is None else repr(head)
        raise ParseError(col, heads, found)
    return head


def _parse_expr(sc: _Scanner):
    head = _head(sc, _EXPR_HEADS)
    if head in ("M", "W", "Pi"):
        return Atom(head)
    sc.open()
    if head == "fgm":
        node = Fgm(sc.number())
    elif head == "straight":
        node = Straight(sc.number())
    elif head == "shuffle":
        cuts = () if sc.peek_char() == ";" else _num_list(sc)
        sc.expect(";")
        sigma = _int_list(sc)
        sc.expect(";")
        node = Shuffle(cuts, sigma, _int_list(sc))
    elif head == "grid":
        node = Grid(sc.path())
    elif head == "t":
        node = Transpose(_parse_expr(sc))
    elif head == "star":
        left = _parse_expr(sc)
        sc.expect(",")
        node = Star(left, _parse_expr(sc))
    else:
        left = _parse_expr(sc)
        sc.expect(",")
        family = _parse_family(sc)
        sc.expect(",")
        node = StarC(left, family, _parse_expr(sc))
    sc.close()
    return node


def _parse_family(sc: _Scanner):
    head = _head(sc, _FAMILY_HEADS)
    sc.open()
    if head == "const":
        node = Const(_parse_expr(sc))
    elif head == "pw":
        cuts = () if sc.peek_char() == ":" else _num_list(sc)
        sc.expect(":")
        members = [_parse_expr(sc)]
        while sc.take(","):
            members.append(_parse_expr(sc))
        node = Pw(cuts, tuple(members))
    else:
        save = sc.pos
        if not (sc.ident() == "poly" and sc.take(":")):
            sc.pos = save  # the "poly:" label is optional
        node = FgmCurve(_num_list(sc))
    sc.close()
    return node


def _parse_top(text: str, entry):
    sc = _Scanner(text)
    node = entry(sc)
    if not sc.at_end():
        raise ParseError(sc.col(), ("end of input",), sc.describe_here())
    return node


def parse(text: str):
    """Parse a copula expression into its AST."""
    return _parse_top(text, _parse_expr)


def parse_family(text: str):
    """Parse a family expression into its AST."""
    return _parse_top(text, _parse_family)


def _fmt(x: float) -> str:
    return repr(float(x))


def to_text(node, num=_fmt) -> str:
    """Canonical text of an AST node.

    parse(to_text(n)) == n for a canonical node, and the text of any
    node reads back to the same text. A ``pw`` node whose cuts include
    the 0 and 1 ends is not canonical: it prints its interior cuts only,
    so it reads back as the node with the ends left out.

    ``num`` spells each float. The repr-exact default keeps the text an
    exact inverse of ``parse``; a shorter format such as ``%g`` gives
    readable labels that may round.
    """
    def text(child):
        return to_text(child, num)

    def nums(xs):
        return ",".join(num(x) for x in xs)

    if isinstance(node, (Atom, Opaque)):
        return node.name
    if isinstance(node, Fgm):
        return f"fgm({num(node.theta)})"
    if isinstance(node, Straight):
        return f"straight({num(node.alpha)})"
    if isinstance(node, Shuffle):
        sigma = ",".join(str(int(s)) for s in node.sigma)
        flips = ",".join(str(int(f)) for f in node.flips)
        return f"shuffle({nums(node.cuts)}; {sigma}; {flips})"
    if isinstance(node, Grid):
        return f'grid("{node.path}")'
    if isinstance(node, Transpose):
        return f"t({text(node.child)})"
    if isinstance(node, Star):
        return f"star({text(node.left)}, {text(node.right)})"
    if isinstance(node, StarC):
        return f"starc({text(node.left)}, {text(node.family)}, {text(node.right)})"
    if isinstance(node, Const):
        return f"const({text(node.member)})"
    if isinstance(node, Pw):
        cuts = node.cuts
        # canonical form lists interior cuts only; strip the ends only
        # where the family would, so invalid cuts stay invalid
        if len(cuts) == len(node.members) + 1 and cuts[0] == 0 and cuts[-1] == 1:
            cuts = cuts[1:-1]
        return f"pw({nums(cuts)}: {', '.join(text(m) for m in node.members)})"
    if isinstance(node, FgmCurve):
        return f"fgmcurve({nums(node.coeffs)})"
    raise SemanticError(f"not an AST node: {node!r}")


def expr_of(obj):
    """The AST that builds ``obj``: the inverse of ``build_copula`` and
    ``build_family``.

    A product prints as the ``star``/``starc`` it was asked for, read
    from its ``source``, whichever closed form evaluates it, the grid
    closed form and the invertible reduction included; its quadrature
    settings are not part of the text. identity-M and zero-Pi return a
    factor or ``PI``, and print as that, as does an invertible reduction
    whose classical product is zero-Pi. A shuffle or a grid that
    ``transpose()`` made prints as ``t(...)`` of the copula it came
    from, so its text builds it the way it was made: a shuffle's
    transpose, spelled out as a shuffle of its own, can be refused in
    ulp-wide cases, and a grid product's transpose keeps the product's
    text. A ``GridCopula`` read from a
    file or made by ``grid_from_copula`` has no source text and maps to
    ``Opaque("grid[NxN]")``, as a ``PolyCopula`` built from
    coefficients maps to ``Opaque("poly[du,dv]")`` of its degrees; any
    other class the language cannot spell maps to ``Opaque`` of its
    class name.
    """
    source = getattr(obj, "source", None)
    if source is not None:
        A, family, B = source
        if family is None:
            return Star(expr_of(A), expr_of(B))
        return StarC(expr_of(A), expr_of(family), expr_of(B))
    made = getattr(obj, "transpose_of", None)
    if made is not None:
        return Transpose(expr_of(made))
    if isinstance(obj, FrechetM):
        return Atom("M")
    if isinstance(obj, FrechetW):
        return Atom("W")
    if isinstance(obj, ProductPi):
        return Atom("Pi")
    if isinstance(obj, FGMCopula):
        return Fgm(obj.theta)
    if isinstance(obj, StraightShuffle):
        return Straight(obj.alpha)
    if isinstance(obj, ShuffleOfM):
        return Shuffle(obj.cuts[1:-1], obj.sigma, obj.flips)
    if isinstance(obj, TransposedCopula):
        return Transpose(expr_of(obj.inner))
    if isinstance(obj, GridCopula):
        return Opaque(f"grid[{obj.n}x{obj.n}]")
    if isinstance(obj, PolyCopula):
        return Opaque("poly[{},{}]".format(*obj.degree))
    if isinstance(obj, ConstantFamily):
        return Const(expr_of(obj.member))
    if isinstance(obj, PiecewiseConstantFamily):
        return Pw(obj.cuts[1:-1], tuple(expr_of(m) for m in obj.members))
    if isinstance(obj, FGMCurveFamily):
        return FgmCurve(obj.coeffs)
    return Opaque(type(obj).__name__)


def build_copula(node, q: QuadratureConfig | None = None,
                 fast_paths: bool = True):
    """Construct the copula an expression denotes.

    Products are built through the library product operations with the
    given quadrature settings. Value errors (parameter out of range,
    bad permutation, malformed grid file) surface as SemanticError.
    """
    try:
        if isinstance(node, Atom):
            return {"M": M, "W": W, "Pi": PI}[node.name]
        if isinstance(node, Fgm):
            return FGMCopula(node.theta)
        if isinstance(node, Straight):
            return StraightShuffle(node.alpha)
        if isinstance(node, Shuffle):
            return ShuffleOfM((0.0,) + node.cuts + (1.0,), node.sigma, node.flips)
        if isinstance(node, Grid):
            return read_grid_csv(node.path)
        if isinstance(node, Transpose):
            return build_copula(node.child, q, fast_paths).transpose()
        if isinstance(node, Star):
            return star(
                build_copula(node.left, q, fast_paths),
                build_copula(node.right, q, fast_paths),
                q, fast_paths=fast_paths,
            ).copula
        if isinstance(node, StarC):
            return star_c(
                build_copula(node.left, q, fast_paths),
                build_family(node.family, q, fast_paths),
                build_copula(node.right, q, fast_paths),
                q, fast_paths=fast_paths,
            ).copula
    except (ConstructionError, DomainError) as exc:
        raise SemanticError(str(exc)) from exc
    raise SemanticError(f"not a copula expression: {node!r}")


def build_family(node, q: QuadratureConfig | None = None,
                 fast_paths: bool = True):
    """Construct the copula family an expression denotes."""
    try:
        if isinstance(node, Const):
            return ConstantFamily(build_copula(node.member, q, fast_paths))
        if isinstance(node, Pw):
            members = tuple(
                build_copula(m, q, fast_paths) for m in node.members
            )
            return PiecewiseConstantFamily(node.cuts, members)
        if isinstance(node, FgmCurve):
            return FGMCurveFamily(node.coeffs)
    except (ConstructionError, DomainError) as exc:
        raise SemanticError(str(exc)) from exc
    raise SemanticError(f"not a family expression: {node!r}")
