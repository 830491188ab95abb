"""The .efam family format: lexer, expression parser, canonical printer.

Statements are line based ('#' starts a comment); a line with open
parentheses continues onto the next.  A file holds one family:

    family twisted-pair
    frame complex z u ; real t
    param g = 1/2 + 3i
    F1 = z^2*u + 2*g*z*t - g^2*conj(u)
    expect eigenfamily = true

Precedence: postfix '~' (conjugation) binds tightest, then '^' with an
integer literal exponent, then unary minus, then '*' and '/', then '+'
and '-'.  There is no implicit multiplication; '/' divides by nonzero
constants only.  'conj(...)' conjugates a subexpression; applying it to
a real coordinate is rejected as a likely typo.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .scalars import GaussRational, ONE, as_scalar, format_scalar, scalar
from .frames import RESERVED, VariableFrame
from .poly import Poly, mono_order_key


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str   # ident | int | imag | op | end
    value: object
    line: int
    col: int


_OPS = set("+-*/^~()=;")


def _lex(text: str, line_no: int):
    "Tokenize one (joined) statement line."
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c == "#":
            break
        col = i + 1
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # more digits than the interpreter converts
                raise ParseError(f"integer literal has {j - i} digits, over the limit of "
                                 f"{sys.get_int_max_str_digits()}", line_no, col) from None
            if j < n and text[j] == "i" and (j + 1 == n or not (text[j + 1].isalnum() or text[j + 1] == "_")):
                out.append(Token("imag", value, line_no, col))
                i = j + 1
            else:
                out.append(Token("int", value, line_no, col))
                i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("ident", text[i:j], line_no, col))
            i = j
            continue
        if c in _OPS:
            out.append(Token("op", c, line_no, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line_no, col)
    out.append(Token("end", None, line_no, n + 1))
    return out


# Subexpressions (parentheses, conj(...), unary minus) nest at most this
# deep, so hostile input is a ParseError and not a RecursionError.
MAX_NESTING = 100


class _ExprParser:
    "Precedence climbing over a token list."

    def __init__(self, tokens, frame: VariableFrame, params):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.frame = frame
        self.params = params or {}

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_op(self, op):
        tok = self.next()
        if tok.kind != "op" or tok.value != op:
            self.fail(f"expected {op!r}", tok)
        return tok

    def parse(self) -> Poly:
        p = self.expression(0)
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.value!r}")
        return p

    def expression(self, min_bp) -> Poly:
        tok = self.peek()
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        if tok.kind == "op" and tok.value == "-":
            self.next()
            left = -self.expression(30)
        else:
            left = self.atom()
        while True:
            tok = self.peek()
            if tok.kind != "op":
                break
            if tok.value in "+-":
                bp = 10
            elif tok.value in "*/":
                bp = 20
            else:
                break
            if bp < min_bp:
                break
            self.next()
            right = self.expression(bp + 1)
            if tok.value == "+":
                left = left + right
            elif tok.value == "-":
                left = left - right
            elif tok.value == "*":
                left = left * right
            else:
                if not right.is_constant():
                    self.fail("division only by constants", tok)
                c = right.constant_value()
                if not c:
                    self.fail("division by zero", tok)
                left = left * Poly.constant(self.frame, ONE / c)
        self.depth -= 1
        return left

    def atom(self) -> Poly:
        tok = self.next()
        if tok.kind == "int":
            p = Poly.constant(self.frame, scalar(tok.value))
        elif tok.kind == "imag":
            p = Poly.constant(self.frame, scalar(0, tok.value))
        elif tok.kind == "op" and tok.value == "(":
            p = self.expression(0)
            self.expect_op(")")
        elif tok.kind == "ident":
            p = self.named(tok)
        else:
            self.fail("expected a value", tok)
        # postfix conjugation, then an optional integer power
        while self.peek().kind == "op" and self.peek().value == "~":
            self.next()
            p = self.conjugated(p, tok)
        if self.peek().kind == "op" and self.peek().value == "^":
            self.next()
            etok = self.next()
            if etok.kind != "int":
                self.fail("exponent must be a nonnegative integer literal", etok)
            p = p ** etok.value
        return p

    def named(self, tok) -> Poly:
        name = tok.value
        if name == "i":
            return Poly.constant(self.frame, scalar(0, 1))
        if name == "conj":
            self.expect_op("(")
            inner_tok = self.peek()
            p = self.expression(0)
            self.expect_op(")")
            return self.conjugated(p, inner_tok)
        if name in self.params:
            value = self.params[name]
            if value is None:
                self.fail(f"parameter {name!r} has no value", tok)
            return Poly.constant(self.frame, value)
        if name not in self.frame:
            self.fail(f"undeclared identifier {name!r}", tok)
        return Poly.variable(self.frame, name)

    def conjugated(self, p: Poly, tok) -> Poly:
        # conjugating a bare real coordinate is a no-op, so a typo
        for name in self.frame.real_names:
            if p == Poly.variable(self.frame, name):
                self.fail(f"conjugation of real coordinate {name!r}", tok)
        return p.conjugate()


def parse_poly(text: str, frame: VariableFrame, params=None, line_no=1) -> Poly:
    bound = None
    if params:
        bound = {}
        for k, v in params.items():
            s = as_scalar(v)
            if s is None and v is not None:
                raise TypeError(f"parameter {k!r} is not an exact scalar")
            bound[k] = s
    return _ExprParser(_lex(text, line_no), frame, bound).parse()


# ---------------------------------------------------------------------
# family files


class FamilySource:
    """A parsed .efam file: name, frame, bound parameters, ordered
    polynomial definitions, and expectation metadata."""

    def __init__(self, name, frame, params, definitions, expects):
        self.name = name
        self.frame = frame
        self.params = dict(params)
        self.definitions = dict(definitions)
        self.expects = dict(expects)

    @property
    def polys(self):
        return list(self.definitions.values())

    def __eq__(self, other):
        if not isinstance(other, FamilySource):
            return NotImplemented
        return (self.name == other.name and self.frame == other.frame
                and self.params == other.params
                and self.definitions == other.definitions
                and self.expects == other.expects)

    def __repr__(self):
        return f"FamilySource({self.name!r}, {len(self.definitions)} polynomials)"


_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def _joined_statements(text: str):
    "Physical lines joined while parentheses stay open."
    out = []
    buf = ""
    start = None
    depth = 0
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip() and depth == 0:
            continue
        if start is None:
            start = no
        buf += line
        depth += line.count("(") - line.count(")")
        if depth < 0:
            raise ParseError("unbalanced ')'", no)
        if depth == 0:
            if buf.strip():
                out.append((start, buf))
            buf = ""
            start = None
    if depth != 0:
        raise ParseError("unclosed '(' at end of file", start)
    return out


def parse_family(text: str, bindings=None) -> FamilySource:
    """Parse a complete family file.  bindings override (or supply)
    parameter values by name and must all be declared in the file."""
    statements = _joined_statements(text)
    if not statements:
        raise ParseError("empty family file")
    bindings = dict(bindings or {})
    name = None
    frame = None
    params = {}
    definitions = {}
    expects = {}
    for line_no, stmt in statements:
        head = stmt.split(None, 1)[0]
        if head == "family":
            if name is not None:
                raise ParseError("duplicate family header", line_no)
            value = stmt.split(None, 1)[1].strip() if len(stmt.split(None, 1)) > 1 else ""
            if not value or not set(value) <= _NAME_OK:
                raise ParseError("family needs a name of letters, digits, '_', '-', '.'", line_no)
            name = value
            continue
        if name is None:
            raise ParseError("file must start with a 'family' header", line_no)
        if head == "frame":
            if frame is not None:
                raise ParseError("duplicate frame", line_no)
            frame = _parse_frame(stmt, line_no)
            continue
        if head == "param":
            pname, value = _parse_param(stmt, line_no, frame)
            if pname in params:
                raise ParseError(f"duplicate parameter {pname!r}", line_no)
            if frame is not None and pname in frame.complex_names + frame.real_names:
                raise ParseError(f"parameter {pname!r} shadows a coordinate", line_no)
            if pname in bindings:
                bound = as_scalar(bindings.pop(pname))
                if bound is None:
                    raise TypeError(f"binding for {pname!r} is not an exact scalar")
                value = bound
            params[pname] = value
            continue
        if head == "expect":
            key, value = _parse_expect(stmt, line_no)
            if key in expects:
                raise ParseError(f"duplicate expectation {key!r}", line_no)
            expects[key] = value
            continue
        # polynomial definition: ident = expr
        tokens = _lex(stmt, line_no)
        if not (tokens[0].kind == "ident" and tokens[1].kind == "op" and tokens[1].value == "="):
            raise ParseError(f"cannot parse statement starting with {head!r}", line_no)
        dname = tokens[0].value
        if frame is None:
            raise ParseError("missing frame declaration before definitions", line_no)
        if dname in RESERVED:
            raise ParseError(f"reserved name {dname!r}", line_no)
        if dname in definitions:
            raise ParseError(f"duplicate definition {dname!r}", line_no)
        if dname in params or dname in frame.complex_names + frame.real_names:
            raise ParseError(f"definition {dname!r} shadows another name", line_no)
        parser = _ExprParser(tokens[2:], frame, params)
        definitions[dname] = parser.parse()
    if bindings:
        stray = ", ".join(sorted(bindings))
        raise ParseError(f"bindings for undeclared parameters: {stray}")
    if frame is None:
        raise ParseError("missing frame declaration")
    if not definitions:
        raise ParseError("family defines no polynomials")
    return FamilySource(name, frame, params, definitions, expects)


def _parse_frame(stmt, line_no):
    tokens = _lex(stmt, line_no)
    pos = 1  # skip 'frame'
    if not (tokens[pos].kind == "ident" and tokens[pos].value == "complex"):
        raise ParseError("frame starts with 'complex'", line_no, tokens[pos].col)
    pos += 1
    complex_names = []
    while tokens[pos].kind == "ident" and tokens[pos].value not in ("real",):
        complex_names.append(tokens[pos].value)
        pos += 1
    real_names = []
    if tokens[pos].kind == "op" and tokens[pos].value == ";":
        pos += 1
        if not (tokens[pos].kind == "ident" and tokens[pos].value == "real"):
            raise ParseError("expected 'real' after ';'", line_no, tokens[pos].col)
        pos += 1
        while tokens[pos].kind == "ident":
            real_names.append(tokens[pos].value)
            pos += 1
    if tokens[pos].kind != "end":
        raise ParseError(f"unexpected {tokens[pos].value!r} in frame", line_no, tokens[pos].col)
    try:
        return VariableFrame(tuple(complex_names), tuple(real_names))
    except ValueError as e:
        raise ParseError(str(e), line_no) from None


def _constant_expr(tokens):
    "A constant expression: on the empty frame every name but i is undeclared."
    return _ExprParser(tokens, VariableFrame((), ()), {}).parse().constant_value()


def _parse_param(stmt, line_no, frame):
    tokens = _lex(stmt, line_no)
    if tokens[1].kind != "ident":
        raise ParseError("param needs a name", line_no)
    pname = tokens[1].value
    if pname in RESERVED:
        raise ParseError(f"reserved name {pname!r}", line_no)
    if tokens[2].kind == "end":
        return pname, None
    if not (tokens[2].kind == "op" and tokens[2].value == "="):
        raise ParseError("expected '=' in param", line_no, tokens[2].col)
    return pname, _constant_expr(tokens[3:])


def _parse_expect(stmt, line_no):
    tokens = _lex(stmt, line_no)
    if tokens[1].kind != "ident" or not (tokens[2].kind == "op" and tokens[2].value == "="):
        raise ParseError("expect syntax: expect <key> = <value>", line_no)
    key = tokens[1].value
    if tokens[3].kind == "ident" and tokens[3].value in ("true", "false") and tokens[4].kind == "end":
        return key, tokens[3].value == "true"
    return key, _constant_expr(tokens[3:])


def load_family(path, bindings=None) -> FamilySource:
    with open(path, encoding="utf-8") as fh:
        return parse_family(fh.read(), bindings=bindings)


# ---------------------------------------------------------------------
# canonical printing


def _format_coefficient(c: GaussRational, with_factor: bool):
    """Render a coefficient; with_factor means a monomial follows.
    Returns (text, needs_parens_handled) with '*' already appended."""
    if not with_factor:
        return format_scalar(c)
    if c == ONE:
        return ""
    if c == -ONE:
        return "-"
    if c.re != 0 and c.im != 0:
        return f"({format_scalar(c)})*"
    return f"{format_scalar(c)}*"


def format_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    frame = p.frame
    parts = []
    for mono, coeff in sorted(p.terms.items(), key=lambda kv: mono_order_key(kv[0])):
        factors = []
        for slot, e in enumerate(mono):
            if not e:
                continue
            label = frame.slot_label(slot)
            factors.append(label if e == 1 else f"{label}^{e}")
        body = "*".join(factors)
        if body:
            text = _format_coefficient(coeff, True) + body
        else:
            text = _format_coefficient(coeff, False)
        parts.append(text)
    out = parts[0]
    for text in parts[1:]:
        if text.startswith("-"):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out


def _format_expect_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return format_scalar(as_scalar(v))


def format_family(fs: FamilySource) -> str:
    lines = [f"family {fs.name}"]
    frame_line = "frame complex " + " ".join(fs.frame.complex_names)
    if fs.frame.real_names:
        frame_line += " ; real " + " ".join(fs.frame.real_names)
    lines.append(frame_line)
    for pname, value in fs.params.items():
        if value is None:
            lines.append(f"param {pname}")
        else:
            lines.append(f"param {pname} = {format_scalar(value)}")
    for dname, poly in fs.definitions.items():
        lines.append(f"{dname} = {format_poly(poly)}")
    for key, value in fs.expects.items():
        lines.append(f"expect {key} = {_format_expect_value(value)}")
    return "\n".join(lines) + "\n"
