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

The alphabet is ASCII: letters, digits 0-9, '_', the operators, blank
and tab; any other character outside a comment is unexpected.  One
regular expression lexes a statement.  A product of monomial factors
(numbers, i, parameters, coordinates, conjugates, powers) evaluates to
one packed term (a, b, d, key) = (a + b i)/d times Poly's packed monomial
key, with Poly's degree checks; a sum goes into one numerator dict, and
Poly arithmetic runs only where a factor is a sum.  The printer reads a
Poly's numerators and denominator directly.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from math import comb, lcm, log2, prod

from .scalars import as_scalar, format_scalar, format_triple, triple
from .frames import RESERVED, VariableFrame
from .poly import (EXP_BITS, MAX_DEGREE, Poly, _conjugated, _gauss_sum, _reduced, _unpacker,
                   check_degree)


class ParseError(ValueError):
    "message, then ' at line L, column C', each of the two left out when None."
    def __init__(self, message, line=None, col=None):
        where = ", ".join(f"{k} {v}" for k, v in (("line", line), ("column", col)) if v is not None)
        super().__init__(message + (f" at {where}" if where else ""))
        self.message = message
        self.line = line
        self.col = col


# One token per match, after blanks and tabs: an integer literal (an
# imaginary one when an 'i' that starts no word follows), a name, an operator,
# the end ('#' or the end of the text), or a stray character; \d is [0-9], \w [A-Za-z0-9_].
_TOKEN = re.compile(r"[ \t]*(?:(?P<int>\d+)(?P<imag>i(?!\w))?|(?P<ident>[^\W\d]\w*)"
                    r"|(?P<op>[-+*/^~()=;])|(?P<end>#|\Z)|(?P<bad>.))", re.S | re.ASCII)


def _lex(text: str, line_no: int):
    """The (kind, value, column) tokens, kind ident, int, imag, op or end, of
    one statement line; any character outside the grammar's alphabet is an
    unexpected character."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "int" or kind == "imag":
            digits, i = m["int"], m.start("int")
            try:
                out.append((kind, int(digits), i + 1))
            except ValueError:  # more digits than the interpreter converts
                raise ParseError(f"integer literal has {len(digits)} digits, over the limit of "
                                 f"{sys.get_int_max_str_digits()}", line_no, i + 1) from None
        elif kind == "end":
            out.append(("end", None, len(text) + 1))
            return out
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", line_no, m.start(kind) + 1)
        else:
            out.append((kind, m[kind], m.start(kind) + 1))


# Subexpressions (parentheses, conj(...), unary minus) nest at most this
# deep, so hostile input is a ParseError and not a RecursionError.
MAX_NESTING = 100

# A literal power p^n is a ParseError before it is computed when one of
# its coefficients would need more than MAX_POWER_BITS bits, or all of
# them more than MAX_POWER_TOTAL_BITS.  The first estimate, n |log2 |c||
# for the coefficient c of the first or the last term (whose n-th power
# is the coefficient of the first or last term of p^n), bounds the
# numerator or denominator of c^n from below, so units such as 1, i and
# (3 + 4i)/5, and zero, stay exact at any n.  The second is the number of
# terms of p^n (at most C(n + T - 1, T - 1) for T terms of p, and at most
# the product of n e + 1 over the largest exponent e of each slot) times
# n log2 of p's largest numerator part or denominator.
MAX_POWER_BITS = 1 << 20
MAX_POWER_TOTAL_BITS = 1 << 23


def _degree(t) -> int:
    "The total degree of a term, read off its key as poly does; -1 for zero."
    a, b, _, key = t
    return (key % MAX_DEGREE or (key and MAX_DEGREE)) if a or b else -1


@lru_cache(maxsize=64)
def _slot_keys(frame):
    "{text of a slot (z, conj(z) or t): its packed key}, in slot order."
    return {frame.slot_label(s): 1 << s * EXP_BITS for s in range(frame.num_slots)}


def _as_poly(frame, value) -> Poly:
    "A parsed value as a Poly: a term over its reduced numerators, a Poly as it is."
    if type(value) is not tuple:
        return value
    return _reduced(frame, {value[3]: value[:2]}, value[2]) if any(value[:2]) else Poly.zero(frame)


class _ExprParser:
    """Precedence climbing over a token list, on values that are terms
    (zero when a = b = 0) or Polys.  Only an operator token has a value
    like '+', so the value alone tells which operator it is."""

    def __init__(self, tokens, frame: VariableFrame, params, line):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.frame = frame
        self.params = params or {}
        self.line = line
        self.keys = _slot_keys(frame)  # a name never reads as a conj(z) label

    def fail(self, message, tok=None):
        raise ParseError(message, self.line, (tok or self.tokens[self.pos])[2])

    def expect_op(self, op):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[1] != op:
            self.fail(f"expected {op!r}", tok)

    def parse(self) -> Poly:
        p = self.expression(0)
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.fail(f"unexpected {tok[1]!r}")
        return _as_poly(self.frame, p)

    def expression(self, min_bp):
        tokens = self.tokens
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        if tokens[self.pos][1] == "-":
            self.pos += 1
            left = self.expression(30)
            left = (-left[0], -left[1], *left[2:]) if type(left) is tuple else -left
        else:
            left = self.atom()
        # the right operand of '*' or '/' (binding power 20) is one factor,
        # so every product comes before the first '+' or '-' (power 10)
        while min_bp <= 20 and tokens[self.pos][1] in ("*", "/"):
            tok = tokens[self.pos]
            self.pos += 1
            right = self.expression(21)
            left = self.product(left, right) if tok[1] == "*" else self.quotient(left, right, tok)
        parts = [(1, left)]
        while min_bp <= 10 and tokens[self.pos][1] in ("+", "-"):
            self.pos += 1
            parts.append((1 if tokens[self.pos - 1][1] == "+" else -1, self.expression(11)))
        if len(parts) > 1:
            left = self.summed(parts)
        self.depth -= 1
        return left

    def product(self, p, q):
        if type(p) is tuple and type(q) is tuple:
            check_degree(_degree(p) + _degree(q), "product")
            a, b, d, k = p
            x, y, e, l = q
            return (a * x - b * y, a * y + b * x, d * e, k + l)
        return _as_poly(self.frame, p) * _as_poly(self.frame, q)

    def quotient(self, p, q, tok):
        "p divided by the nonzero constant q."
        q = _as_poly(self.frame, q)
        if not q.is_constant():
            self.fail("division only by constants", tok)
        if not q:
            self.fail("division by zero", tok)
        a, b, d = triple(q.constant_value())
        return self.product(p, (d * a, -d * b, a * a + b * b, 0))

    def power(self, p, tok):
        "p^n for the exponent token tok; degree and both bit bounds are checked before it multiplies."
        n = tok[1]
        if type(p) is tuple:
            a, b, d, key = p
            nums = {key: (a, b)} if a or b else {}
        else:
            nums, d, key = p.nums, p.den, None
        if nums:  # the n-th powers of the first and last terms are the first and last of p^n
            check_degree((_degree(p) if key is not None else p.degree()) * n, "power")
            ends = [nums[k] for k in {min(nums), max(nums)}]
            big = min(n, 1 << 900)  # past any bound, and a float: units stay exact at any n
            bits = big * max(abs(log2(x * x + y * y) / 2 - log2(d)) for x, y in ends)
            if bits > MAX_POWER_BITS:
                self.fail(f"power would have a coefficient of about {round(bits)} bits, over the "
                          f"limit of {MAX_POWER_BITS}", tok)
            tops = map(max, zip(*map(_unpacker(self.frame.num_slots), nums)))
            # past the limit, the bits of a size of 2 or more are at least the terms
            terms = min(comb(n + len(nums) - 1, len(nums) - 1), prod(n * e + 1 for e in tops),
                        MAX_POWER_TOTAL_BITS + 1)
            bits = terms * big * log2(max(d, *(max(abs(x), abs(y)) for x, y in nums.values())))
            if bits > MAX_POWER_TOTAL_BITS:
                self.fail(f"power would have coefficients of about {round(bits)} bits in all, over "
                          f"the limit of {MAX_POWER_TOTAL_BITS}", tok)
        if key is not None and not b:  # a real coefficient: one power per integer
            return (a ** n, 0, d ** n if a else 1, key * n)  # 0 ** 0 = 1; a zero's d stays
        return _as_poly(self.frame, p) ** n

    def summed(self, parts) -> Poly:
        "sum sign * value over (sign, value) parts, as one numerator dict over one denominator."
        parts = [(sign, v[:2], {v[3]: (1, 0)}, v[2]) if type(v) is tuple
                 else (sign, (1, 0), v.nums, v.den) for sign, v in parts]
        den = lcm(*[d for *_, d in parts])
        return _reduced(self.frame, _gauss_sum([((s * a * (den // d), s * b * (den // d)), nums)
                                                for s, (a, b), nums, d in parts]), den)

    def atom(self):
        tokens = self.tokens
        tok = tokens[self.pos]
        self.pos += 1
        kind, value, _ = tok
        if kind == "ident":
            p = self.named(tok)
        elif kind == "int":
            p = (value, 0, 1, 0)
        elif kind == "imag":
            p = (0, value, 1, 0)
        elif value == "(":
            p = self.expression(0)
            self.expect_op(")")
        else:
            self.fail("expected a value", tok)
        # postfix conjugation, then an optional integer power
        while tokens[self.pos][1] == "~":
            self.pos += 1
            p = self.conjugated(p, tok)
        if tokens[self.pos][1] == "^":
            etok = tokens[self.pos + 1]
            self.pos += 2
            if etok[0] != "int":
                self.fail("exponent must be a nonnegative integer literal", etok)
            p = self.power(p, etok)
        return p

    def named(self, tok):
        name = tok[1]
        if name == "i":
            return (0, 1, 1, 0)
        if name == "conj":
            self.expect_op("(")
            inner_tok = self.tokens[self.pos]
            p = self.expression(0)
            self.expect_op(")")
            return self.conjugated(p, inner_tok)
        if name in self.params:
            value = self.params[name]
            if value is None:
                self.fail(f"parameter {name!r} has no value", tok)
            return (*triple(value), 0)
        if name not in self.frame:
            self.fail(f"undeclared identifier {name!r}", tok)
        return (1, 0, 1, self.keys[name])

    def conjugated(self, p, tok):
        nums, den = ({p[3]: p[:2]}, p[2]) if type(p) is tuple else (p.nums, p.den)
        for name in self.frame.real_names:  # conjugating one is a no-op, so a typo
            if nums == {self.keys[name]: (den, 0)}:
                self.fail(f"conjugation of real coordinate {name!r}", tok)
        if type(p) is not tuple:
            return p.conjugate()
        (key, (a, b)), = _conjugated(nums, self.frame.n).items()
        return (a, b, den, key)


def parse_poly(text: str, frame: VariableFrame, params=None, line_no=1) -> Poly:
    bound = None
    if params:
        bound = {}
        for k, v in params.items():
            s = as_scalar(v)
            if s is None and v is not None:
                raise TypeError(f"parameter {k!r} is not an exact scalar")
            bound[k] = s
    return _ExprParser(_lex(text, line_no), frame, bound, line_no).parse()


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
_BLANKS = " \t"
_LINE_END = re.compile(r"\r\n?|\n")
_BLANK_RUN = re.compile(r"[ \t]+")


def _joined_statements(text: str):
    "Physical lines, ending at \\n, \\r\\n or \\r, joined while parentheses stay open."
    out = []
    buf = ""
    start = None
    depth = 0
    for no, raw in enumerate(_LINE_END.split(text), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip(_BLANKS) and depth == 0:
            continue
        if start is None:
            start = no
        buf += line
        depth += line.count("(") - line.count(")")
        if depth < 0:
            raise ParseError("unbalanced ')'", no)
        if depth == 0:  # buf starts with a line that is not blank
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
        head, *rest = _BLANK_RUN.split(stmt.strip(_BLANKS), 1)
        if head == "family":
            if name is not None:
                raise ParseError("duplicate family header", line_no)
            value = "".join(rest)
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
        if not (tokens[0][0] == "ident" and tokens[1][1] == "="):
            raise ParseError(f"cannot parse statement starting with {head!r}", line_no)
        dname = tokens[0][1]
        if frame is None:
            raise ParseError("missing frame declaration before definitions", line_no)
        if dname in RESERVED:
            raise ParseError(f"reserved name {dname!r}", line_no)
        if dname in definitions:
            raise ParseError(f"duplicate definition {dname!r}", line_no)
        if dname in params or dname in frame.complex_names + frame.real_names:
            raise ParseError(f"definition {dname!r} shadows another name", line_no)
        definitions[dname] = _ExprParser(tokens[2:], frame, params, line_no).parse()
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
    if tokens[pos][:2] != ("ident", "complex"):
        raise ParseError("frame starts with 'complex'", line_no, tokens[pos][2])
    pos += 1
    complex_names = []
    while tokens[pos][0] == "ident" and tokens[pos][1] != "real":
        complex_names.append(tokens[pos][1])
        pos += 1
    real_names = []
    if tokens[pos][1] == ";":
        pos += 1
        if tokens[pos][:2] != ("ident", "real"):
            raise ParseError("expected 'real' after ';'", line_no, tokens[pos][2])
        pos += 1
        while tokens[pos][0] == "ident":
            real_names.append(tokens[pos][1])
            pos += 1
    if tokens[pos][0] != "end":
        raise ParseError(f"unexpected {tokens[pos][1]!r} in frame", line_no, tokens[pos][2])
    try:
        return VariableFrame(tuple(complex_names), tuple(real_names))
    except ValueError as e:
        raise ParseError(str(e), line_no) from None


_NO_COORDINATES = VariableFrame((), ())


def _constant_expr(tokens, line_no):
    "A constant expression: on the empty frame every name but i is undeclared."
    return _ExprParser(tokens, _NO_COORDINATES, {}, line_no).parse().constant_value()


def _parse_param(stmt, line_no, frame):
    tokens = _lex(stmt, line_no)
    if tokens[1][0] != "ident":
        raise ParseError("param needs a name", line_no)
    pname = tokens[1][1]
    if pname in RESERVED:
        raise ParseError(f"reserved name {pname!r}", line_no)
    if tokens[2][0] == "end":
        return pname, None
    if tokens[2][1] != "=":
        raise ParseError("expected '=' in param", line_no, tokens[2][2])
    return pname, _constant_expr(tokens[3:], line_no)


def _parse_expect(stmt, line_no):
    tokens = _lex(stmt, line_no)
    if tokens[1][0] != "ident" or tokens[2][1] != "=":
        raise ParseError("expect syntax: expect <key> = <value>", line_no)
    key = tokens[1][1]
    if tokens[3][0] == "ident" and tokens[3][1] in ("true", "false") and tokens[4][0] == "end":
        return key, tokens[3][1] == "true"
    return key, _constant_expr(tokens[3:], line_no)


def load_family(path, bindings=None) -> FamilySource:
    with open(path, encoding="utf-8") as fh:
        return parse_family(fh.read(), bindings=bindings)


# ---------------------------------------------------------------------
# canonical printing


def format_poly(p: Poly) -> str:
    """The canonical text of p, read off its numerators: terms by
    descending degree, then descending exponent tuple."""
    if not p.nums:
        return "0"
    den, labels = p.den, list(_slot_keys(p.frame))
    out = []
    for _, mono, (a, b) in sorted([(sum(mono), mono, ab) for mono, ab in
                                   zip(map(_unpacker(p.frame.num_slots), p.nums), p.nums.values())],
                                  reverse=True):
        body = "*".join([labels[s] if e == 1 else f"{labels[s]}^{e}"
                         for s, e in enumerate(mono) if e])
        if not body:
            text = format_triple(a, b, den)
        elif not b and abs(a) == den:  # a unit coefficient: only its sign shows
            text = body if a > 0 else "-" + body
        elif a and b:
            text = f"({format_triple(a, b, den)})*{body}"
        else:
            text = f"{format_triple(a, b, den)}*{body}"
        out.append(" - " + text[1:] if out and text[0] == "-" else " + " + text if out else text)
    return "".join(out)


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
