"""Parsers for diagonal mixed polynomials and real polynomial maps.

Mixed grammar (one complex variable per term, conjugates marked with a
trailing `~` or wrapped in `conj(...)`):

    poly   := ['+'|'-'] term (('+'|'-') term)*  ['vars' '=' INT]
    term   := [coeff] factor+
    coeff  := '(' complex ')' | real | imag
    factor := 'z' INT ['~'] ['^' INT]  |  'conj' '(' 'z' INT ')' ['^' INT]

A complex coefficient with both parts, e.g. (1+i) or (-2-3/4i), must be
parenthesised; bare coefficients are purely real or purely imaginary.
Rational literals use '/', decimals are converted exactly.

Real map grammar (explicit '*' for products, variables declared last):

    map    := '(' expr (',' expr)* ')' 'vars' ident (',' ident)*
    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ['^' INT]
    base   := number | ident | '(' expr ')'

Both parsers report the character position of the offending token.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .mixed import ComplexRational, DiagonalMixedPolynomial, MixedTerm
from .realpoly import RealPolynomialMap


class ParseError(ValueError):
    """Raised on malformed input; carries the character offset in `pos`."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^(),~=]))")
_VAR_RE = re.compile(r"z(\d+)")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            tokens.append(("NUM", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("ID", m.group(2), m.start(2)))
        else:
            tokens.append(("OP", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("END", "", len(text)))
    return tokens


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def accept(self, kind, text=None):
        tok = self.tokens[self.k]
        if tok[0] == kind and (text is None or tok[1] == text):
            self.k += 1
            return tok
        return None

    def expect(self, kind, text=None, what=""):
        tok = self.accept(kind, text)
        if tok is None:
            got = self.peek()
            shown = got[1] if got[0] != "END" else "end of input"
            raise ParseError(f"expected {what or text or kind}, got {shown!r}", got[2])
        return tok


def _expect_end(cur: _Cursor) -> None:
    tail = cur.peek()
    if tail[0] != "END":
        raise ParseError(f"unexpected trailing input {tail[1]!r}", tail[2])


def _parse_int(cur: _Cursor, what: str) -> int:
    tok = cur.expect("NUM", what=what)
    if "." in tok[1]:
        raise ParseError(f"{what} must be an integer", tok[2])
    return int(tok[1])


def _signed_items(cur: _Cursor, item) -> list:
    """item(cur, sign) for each item of `['+'|'-'] item (('+'|'-') item)*`."""
    op = cur.accept("OP", "-") or cur.accept("OP", "+")
    items = []
    while True:
        items.append(item(cur, -1 if op and op[1] == "-" else 1))
        op = cur.accept("OP", "+") or cur.accept("OP", "-")
        if op is None:
            return items


def _fraction(text: str) -> Fraction:
    # Fraction(str) matches a regex; an integer token needs only int()
    return Fraction(text) if "." in text else Fraction(int(text))


def _parse_number(cur: _Cursor) -> Fraction:
    tok = cur.expect("NUM", what="number")
    val = _fraction(tok[1])
    if cur.accept("OP", "/"):
        den = cur.expect("NUM", what="denominator")
        d = _fraction(den[1])
        if d == 0:
            raise ParseError("division by zero in coefficient", den[2])
        val /= d
    return val


# ----------------------------------------------------------------------
# mixed polynomials


def _parse_cpart(cur: _Cursor, sign: int) -> ComplexRational:
    # one signed component: number, number 'i', or bare 'i'
    if cur.accept("ID", "i"):
        return ComplexRational(0, sign)
    mag = _parse_number(cur)
    if cur.accept("ID", "i"):
        return ComplexRational(0, sign * mag)
    return ComplexRational(sign * mag, 0)


def _parse_paren_complex(cur: _Cursor) -> ComplexRational:
    cur.expect("OP", "(")
    parts = _signed_items(cur, _parse_cpart)
    cur.expect("OP", ")")
    return sum(parts[1:], parts[0])


def _starts_factor(cur: _Cursor) -> bool:
    kind, text, _ = cur.peek()
    if kind != "ID":
        return False
    return text == "conj" or _VAR_RE.fullmatch(text) is not None


def _parse_factor(cur: _Cursor) -> tuple[int, int, int]:
    # returns (variable index, plain exponent, conjugate exponent)
    tok = cur.next()
    conj = tok[1] == "conj"
    var = tok
    if conj:
        cur.expect("OP", "(", what="'(' after conj")
        var = cur.expect("ID", what="variable like z1")
    m = _VAR_RE.fullmatch(var[1])
    if m is None:
        raise ParseError(f"expected variable like z1, got {var[1]!r}", var[2])
    j = int(m.group(1))
    if conj:
        cur.expect("OP", ")")
    elif cur.accept("OP", "~"):
        conj = True
    if j < 1:
        raise ParseError("variable index must be >= 1", tok[2])
    expo = _parse_int(cur, "exponent") if cur.accept("OP", "^") else 1
    return (j, 0, expo) if conj else (j, expo, 0)


def _parse_mixed_term(cur: _Cursor, sign: int) -> tuple[MixedTerm, int]:
    # the term and the position where it starts
    kind, text, start = cur.peek()
    coeff = ComplexRational(1, 0)
    if kind == "NUM" or (kind, text) == ("ID", "i"):
        coeff = _parse_cpart(cur, 1)
    elif (kind, text) == ("OP", "("):
        coeff = _parse_paren_complex(cur)
    if sign < 0:
        coeff = -coeff
    if coeff.is_zero():
        raise ParseError("zero coefficient", start)
    cur.accept("OP", "*")
    if not _starts_factor(cur):
        got = cur.peek()
        shown = got[1] if got[0] != "END" else "end of input"
        raise ParseError(f"expected variable like z1, got {shown!r}", got[2])
    j0 = None
    a = b = 0
    while _starts_factor(cur):
        j, da, db = _parse_factor(cur)
        if j0 is None:
            j0 = j
        elif j != j0:
            raise ParseError(
                f"term mixes z{j0} and z{j}; diagonal form allows one variable per term",
                cur.tokens[cur.k - 1][2])
        a += da
        b += db
        cur.accept("OP", "*")
    if a + b == 0:
        raise ParseError(f"term in z{j0} has total degree zero", start)
    return MixedTerm(j0, coeff, a, b), start


def parse_mixed(text: str) -> DiagonalMixedPolynomial:
    """Parse a diagonal mixed polynomial such as '(1+i) z1 z1~ - 2 z2^2 z2~^2'."""
    cur = _Cursor(_tokenize(text))
    seen = set()

    def term(cur, sign):
        t, pos = _parse_mixed_term(cur, sign)
        if t.j in seen:
            raise ParseError(f"duplicate variable z{t.j}", pos)
        seen.add(t.j)
        return t

    terms = _signed_items(cur, term)
    n = max(seen)
    if cur.accept("ID", "vars"):
        cur.expect("OP", "=")
        pos = cur.peek()[2]
        n_declared = _parse_int(cur, "variable count")
        if n_declared < n:
            raise ParseError(f"vars={n_declared} but z{n} occurs", pos)
        n = n_declared
    _expect_end(cur)
    return DiagonalMixedPolynomial(n, terms)


def _signed_join(pieces: list[tuple[bool, str]]) -> str:
    # (negative, body) pairs as 'a + b - c', with a leading '-' if needed
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


def render_mixed(psi: DiagonalMixedPolynomial) -> str:
    """Render a polynomial in the syntax accepted by parse_mixed."""
    pieces = []
    for t in psi.terms:
        c = t.coeff
        neg = False
        if c.im == 0:
            neg = c.re < 0
            mag = abs(c.re)
            coeff_str = "" if mag == 1 else str(mag)
        elif c.re == 0:
            neg = c.im < 0
            mag = abs(c.im)
            coeff_str = "i" if mag == 1 else str(mag) + "i"
        else:
            im_mag = abs(c.im)
            im_str = "i" if im_mag == 1 else str(im_mag) + "i"
            coeff_str = f"({c.re}{'+' if c.im > 0 else '-'}{im_str})"
        factors = []
        if t.a > 0:
            factors.append(f"z{t.j}" + (f"^{t.a}" if t.a > 1 else ""))
        if t.b > 0:
            factors.append(f"z{t.j}~" + (f"^{t.b}" if t.b > 1 else ""))
        body = (coeff_str + " " if coeff_str else "") + " ".join(factors)
        pieces.append((neg, body))
    out = _signed_join(pieces)
    max_j = max(t.j for t in psi.terms)
    if psi.n != max_j:
        out += f" vars={psi.n}"
    return out


# ----------------------------------------------------------------------
# real polynomial maps

_Poly = dict  # exponent tuple -> Fraction


def _p_const(q: Fraction, n: int) -> _Poly:
    return {} if q == 0 else {(0,) * n: q}


def _p_add(a: _Poly, b: _Poly) -> _Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
        if out[e] == 0:
            del out[e]
    return out


def _p_mul(a: _Poly, b: _Poly) -> _Poly:
    out: _Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
            if out[key] == 0:
                del out[key]
    return out


def _p_pow(a: _Poly, k: int, n: int) -> _Poly:
    out = _p_const(Fraction(1), n)
    for _ in range(k):
        out = _p_mul(out, a)
    return out


class _RealExprParser:
    def __init__(self, cur: _Cursor, var_index: dict[str, int], n: int):
        self.cur = cur
        self.vars = var_index
        self.n = n

    def expr(self) -> _Poly:
        def signed_term(cur, sign):
            t = self.term()
            return t if sign > 0 else {e: -c for e, c in t.items()}
        return functools.reduce(_p_add, _signed_items(self.cur, signed_term))

    def term(self) -> _Poly:
        acc = self.factor()
        while self.cur.accept("OP", "*"):
            acc = _p_mul(acc, self.factor())
        return acc

    def factor(self) -> _Poly:
        base = self.base()
        if self.cur.accept("OP", "^"):
            return _p_pow(base, _parse_int(self.cur, "exponent"), self.n)
        return base

    def base(self) -> _Poly:
        kind, text, pos = self.cur.peek()
        if kind == "NUM":
            return _p_const(_parse_number(self.cur), self.n)
        if kind == "ID":
            self.cur.next()
            if text not in self.vars:
                raise ParseError(f"unknown variable {text!r}", pos)
            e = [0] * self.n
            e[self.vars[text]] = 1
            return {tuple(e): Fraction(1)}
        if kind == "OP" and text == "(":
            self.cur.next()
            inner = self.expr()
            self.cur.expect("OP", ")")
            return inner
        shown = text if kind != "END" else "end of input"
        raise ParseError(f"expected number, variable or '(', got {shown!r}", pos)


def parse_real_map(text: str) -> RealPolynomialMap:
    """Parse a map such as '(x*y + z^2, x) vars x,y,z'."""
    tokens = _tokenize(text)
    # locate the closing 'vars' clause first so variables are known
    depth = 0
    split = None
    for idx, (kind, tok, _pos) in enumerate(tokens):
        if kind == "OP" and tok == "(":
            depth += 1
        elif kind == "OP" and tok == ")":
            depth -= 1
        elif kind == "ID" and tok == "vars" and depth == 0:
            split = idx
            break
    if split is None:
        raise ParseError("missing 'vars' clause", tokens[-1][2])
    names = []
    cur = _Cursor(tokens)
    cur.k = split + 1
    while True:
        kind, name, pos = cur.next()
        if kind != "ID":
            raise ParseError("expected variable name", pos)
        if name == "vars":
            raise ParseError("'vars' is reserved", pos)
        if name in names:
            raise ParseError(f"duplicate variable name {name!r}", pos)
        names.append(name)
        if not cur.accept("OP", ","):
            break
    _expect_end(cur)

    n = len(names)
    var_index = {name: i for i, name in enumerate(names)}
    cur = _Cursor(tokens[:split] + [("END", "", tokens[split][2])])
    cur.expect("OP", "(", what="'('")
    parser = _RealExprParser(cur, var_index, n)
    comps = [parser.expr()]
    while cur.accept("OP", ","):
        comps.append(parser.expr())
    cur.expect("OP", ")")
    _expect_end(cur)
    return RealPolynomialMap(n, comps, names)


def render_real_map(f: RealPolynomialMap) -> str:
    """Render a map in the syntax accepted by parse_real_map."""

    def mono(expo, coeff: Fraction) -> tuple[bool, str]:
        neg = coeff < 0
        mag = abs(coeff)
        parts = []
        if mag != 1 or not any(expo):
            parts.append(str(mag))
        for name, e in zip(f.var_names, expo):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return neg, "*".join(parts)

    comp_strs = []
    for comp in f.components:
        if not comp:
            comp_strs.append("0")
            continue
        items = sorted(comp.items(), key=lambda kv: (-sum(kv[0]), kv[0]))
        comp_strs.append(_signed_join([mono(expo, coeff) for expo, coeff in items]))
    return "(" + ", ".join(comp_strs) + ") vars " + ",".join(f.var_names)
