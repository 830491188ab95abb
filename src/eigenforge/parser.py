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
regular expression call lexes a statement into token strings; a column
is found again only for a message.  A value stays one packed term
(a, b, d, key) = (a + b i)/d times Poly's packed monomial key, with Poly's
degree checks: a product of monomial factors, a sum of constants (or of
terms on one monomial) and a literal power of one term.  Poly arithmetic
runs only for the other sums, in one numerator dict, and for what they
enter.  The printer reads a Poly's numerators and denominator directly.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from math import comb, lcm, log2, prod

from .scalars import as_scalar, format_scalar, format_triple, from_triple, triple
from .frames import RESERVED, VariableFrame
from .poly import (EXP_BITS, MAX_DEGREE, Poly, _conjugated, _gauss_sum, _nonzero, _reduced,
                   _unpacker, check_degree)


class ParseError(ValueError):
    "message, then ' at line L, column C', each of the two left out when None."
    def __init__(self, message, line=None, col=None):
        where = ", ".join(f"{k} {v}" for k, v in (("line", line), ("column", col)) if v is not None)
        super().__init__(message + (f" at {where}" if where else ""))
        self.message = message
        self.line = line
        self.col = col


# One token per match, after blanks and tabs: digits (an imaginary literal when an 'i' that
# starts no word follows), a name, an operator, or "" for the end; \d is [0-9], \w [A-Za-z0-9_].
# A statement is lexed up to its comment, all _ALPHABET's characters, so the matches cover it.
_TOKEN = re.compile(r"[ \t]*(\d+(?:i(?!\w))?|[^\W\d]\w*|[-+*/^~()=;]|\Z)", re.ASCII)
_ALPHABET = re.compile(r"[\w \t+*/^~()=;-]*", re.ASCII)


def _lex(text: str, line_no: int):
    """The tokens of one statement line as strings, then "" for the end ('#'
    or the end of the text); a character outside the grammar's alphabet, or a
    literal past the interpreter's digit limit, is refused where it comes first."""
    end = _ALPHABET.match(text).end()
    tokens = _TOKEN.findall(text[:end])
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: the interpreter has none
    if limit and end > limit and max(map(len, tokens)) > limit:
        for k, tok in enumerate(tokens):
            if "0" <= tok < ":" and len(tok.rstrip("i")) > limit:  # digits, then perhaps an 'i'
                raise ParseError(f"integer literal has {len(tok.rstrip('i'))} digits, over the "
                                 f"limit of {limit}", line_no, _column(text, k))
    if end < len(text) and text[end] != "#":
        raise ParseError(f"unexpected character {text[end]!r}", line_no, end + 1)
    return tokens


def _column(text: str, k: int) -> int:
    "The column of token k of _lex(text), found again for a message; the end is one past the text."
    m = [*_TOKEN.finditer(text[:_ALPHABET.match(text).end()])][k]
    return m.start(1) + 1 if m[1] else len(text) + 1


def _shown(tok: str) -> str:
    "A token as messages show it: an integer literal by its value, without its 'i'."
    return repr(int(tok.rstrip("i")) if "0" <= tok < ":" else tok)


# Subexpressions (parentheses, conj(...), unary minus) nest at most this
# deep, so hostile input is a ParseError and not a RecursionError.
MAX_NESTING = 100
_TOO_DEEP = f"expression nested deeper than {MAX_NESTING} levels"

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
    """Recursive descent over the tokens of one statement, on values that are
    terms (zero when a = b = 0; a, b and d need not be coprime) or Polys.
    A Poly value is zero or has two terms or more: a sum with one monomial
    left is a term, p^0 is the term 1, and a product or power of Polys keeps
    their first and last terms.  One parser reads every statement of a
    family: params is the family's dict, so a statement sees the parameters
    declared before it."""

    def __init__(self, frame: VariableFrame, params):
        self.frame = frame
        self.params = params
        keys = _slot_keys(frame)  # a name never reads as a conj(z) label
        self.names = {"i": (0, 1, 1, 0), **{name: (1, 0, 1, keys[name]) for name in
                                            frame.complex_names + frame.real_names}}
        self.reals = {keys[name]: name for name in frame.real_names}

    def parse(self, text, tokens, start, line):
        "The value of tokens[start:], of the statement text on its line: a term or a Poly."
        self.text, self.tokens, self.pos, self.depth, self.line = text, tokens, start, 0, line
        p = self.expression()
        if tokens[self.pos]:
            self.fail(f"unexpected {_shown(tokens[self.pos])}")
        return p

    def fail(self, message, at=None):
        "A ParseError at token `at`, by default the current one."
        raise ParseError(message, self.line, _column(self.text, self.pos if at is None else at))

    def expect_op(self, op):
        self.pos += 1
        if self.tokens[self.pos - 1] != op:
            self.fail(f"expected {op!r}", self.pos - 1)

    def expression(self):
        "A sum of products; the operands of its '+' and '-' are one level deeper still."
        depth = self.depth
        if depth > MAX_NESTING:
            self.fail(_TOO_DEEP)
        self.depth = depth + 1
        parts = [(1, self.product())]
        while (op := self.tokens[self.pos]) == "+" or op == "-":
            self.pos += 1
            if depth + 1 > MAX_NESTING:
                self.fail(_TOO_DEEP)
            self.depth = depth + 2
            parts.append((1 if op == "+" else -1, self.product()))
        self.depth = depth
        return self.summed(parts) if len(parts) > 1 else parts[0][1]

    def product(self):
        "A product of factors; two terms multiply inline, with Poly's degree check."
        tokens = self.tokens
        left = self.factor(False)
        while (op := tokens[self.pos]) == "*" or op == "/":
            at = self.pos
            self.pos = at + 1
            right = self.factor(True)
            if op == "/":
                right = self.inverse(right, at)
            if type(left) is tuple and type(right) is tuple:
                a, b, d, k = left
                x, y, e, l = right
                if k and l:  # two nonconstant terms; a zero one has degree -1
                    deg = (k % MAX_DEGREE or MAX_DEGREE) + (l % MAX_DEGREE or MAX_DEGREE)
                    if deg > MAX_DEGREE and (a or b) and (x or y):
                        check_degree(deg, "product")
                left = (a * x - b * y, a * y + b * x, d * e, k + l)
            else:
                left = _as_poly(self.frame, left) * _as_poly(self.frame, right)
        return left

    def factor(self, nested):
        """A unary minus and the factor after it, one level deeper, or an atom with its
        postfix '~'s and power; a nested factor (of '*' or '/') is one level deeper."""
        tokens, outer = self.tokens, self.depth
        if nested:
            if outer > MAX_NESTING:
                self.fail(_TOO_DEEP)
            self.depth = outer + 1
        at = self.pos
        tok = tokens[at]
        self.pos = at + 1
        p = self.names.get(tok)  # i or a coordinate, unless a parameter takes the name
        if p is None or tok in self.params and tok != "i":
            if "0" <= tok < ":":  # digits first: an integer literal, or an imaginary one
                p = (0, int(tok[:-1]), 1, 0) if tok[-1] == "i" else (int(tok), 0, 1, 0)
            elif tok == "-":
                p = self.factor(True)
                self.depth = outer
                return (-p[0], -p[1], p[2], p[3]) if type(p) is tuple else -p
            elif tok == "(":
                p = self.expression()
                self.expect_op(")")
            elif not tok.isidentifier():
                self.fail("expected a value", at)
            elif tok == "conj":
                self.expect_op("(")
                inner, p = self.pos, self.expression()
                self.expect_op(")")
                p = self.conjugated(p, inner)
            elif tok not in self.params:
                self.fail(f"undeclared identifier {tok!r}", at)
            elif self.params[tok] is None:
                self.fail(f"parameter {tok!r} has no value", at)
            else:
                p = (*triple(self.params[tok]), 0)
        while tokens[self.pos] == "~":
            self.pos += 1
            p = self.conjugated(p, at)
        if tokens[self.pos] == "^":
            self.pos += 2
            if not tokens[self.pos - 1].isdigit():
                self.fail("exponent must be a nonnegative integer literal", self.pos - 1)
            p = self.power(p, int(tokens[self.pos - 1]), self.pos - 1)
        self.depth = outer
        return p

    def inverse(self, q, at):
        "1/q = d (a - b i) / (a^2 + b^2) for the nonzero constant q = (a + b i)/d after '/' `at`."
        if type(q) is not tuple:  # zero, or two terms or more
            self.fail("division only by constants" if q else "division by zero", at)
        a, b, d, key = q
        if not (a or b):
            self.fail("division by zero", at)
        if key:
            self.fail("division only by constants", at)
        return (d * a, -d * b, a * a + b * b, 0) if b else (d if a > 0 else -d, 0, abs(a), 0)

    def power(self, p, n, at):
        "p^n for the exponent n at token `at`, degree and bit bounds checked before it multiplies."
        if type(p) is not tuple:
            if p.nums:
                check_degree(p.degree() * n, "power")
                self.check_power_bits(p.nums, p.den, n, at)
            return p ** n if n else (1, 0, 1, 0)
        if not (p[0] or p[1]):
            return (0, 0, 1, p[3] * n) if n else (1, 0, 1, 0)
        c, key = from_triple(*p[:3]), p[3]  # the bounds read c in lowest terms, as a Poly's
        a, b, d = triple(c)
        check_degree((key % MAX_DEGREE or (key and MAX_DEGREE)) * n, "power")
        # both estimates stay under n (L + 1/2) for the largest bit length L of a, b and d
        if n * (max(a.bit_length(), b.bit_length(), d.bit_length()) + 1) > MAX_POWER_BITS:
            self.check_power_bits({key: (a, b)}, d, n, at)
        return (*triple(c ** n), key * n) if b else (a ** n, 0, d ** n, key * n)

    def check_power_bits(self, nums, d, n, at):
        "A ParseError when (nums / d)^n passes MAX_POWER_BITS or MAX_POWER_TOTAL_BITS."
        # the n-th powers of the first and last terms are the first and last of the power
        ends = [nums[k] for k in {min(nums), max(nums)}]
        big = min(n, 1 << 900)  # past any bound, and a float: units stay exact at any n
        bits = big * max(abs(log2(x * x + y * y) / 2 - log2(d)) for x, y in ends)
        if bits > MAX_POWER_BITS:
            self.fail(f"power would have a coefficient of about {round(bits)} bits, over the "
                      f"limit of {MAX_POWER_BITS}", at)
        tops = map(max, zip(*map(_unpacker(self.frame.num_slots), nums)))
        # past the limit, the bits of a size of 2 or more are at least the terms
        terms = min(comb(n + len(nums) - 1, len(nums) - 1), prod(n * e + 1 for e in tops),
                    MAX_POWER_TOTAL_BITS + 1)
        bits = terms * big * log2(max(d, *(max(abs(x), abs(y)) for x, y in nums.values())))
        if bits > MAX_POWER_TOTAL_BITS:
            self.fail(f"power would have coefficients of about {round(bits)} bits in all, over "
                      f"the limit of {MAX_POWER_TOTAL_BITS}", at)

    def summed(self, parts):
        "sum sign * value over (sign, value) parts: a term when at most one monomial is left."
        den = lcm(*[v[2] if type(v) is tuple else v.den for _, v in parts])
        acc, polys = {}, []
        for sign, v in parts:
            if type(v) is tuple:
                w, (a, b) = sign * (den // v[2]), acc.get(v[3], (0, 0))
                acc[v[3]] = (a + w * v[0], b + w * v[1])
            else:
                polys.append(((sign * (den // v.den), 0), v.nums))
        nums = _gauss_sum([((1, 0), _nonzero(acc)), *polys])
        if len(nums) > 1:
            return _reduced(self.frame, nums, den)
        key, (a, b) = next(iter(nums.items()), (0, (0, 0)))
        return (a, b, den, key)

    def conjugated(self, p, at):
        "The conjugate of p, whose text starts at token `at`."
        if type(p) is not tuple:  # no Poly is one term, so none is a bare coordinate
            return p.conjugate()
        a, b, d, key = p
        if a == d and not b and key in self.reals:  # conjugating one is a no-op, so a typo
            self.fail(f"conjugation of real coordinate {self.reals[key]!r}", at)
        (key, (a, b)), = _conjugated({key: (a, b)}, self.frame.n).items()
        return (a, b, d, key)


def parse_poly(text: str, frame: VariableFrame, params=None, line_no=1) -> Poly:
    bound = {}
    for k, v in (params or {}).items():
        s = as_scalar(v)
        if s is None and v is not None:
            raise TypeError(f"parameter {k!r} is not an exact scalar")
        bound[k] = s
    tokens = _lex(text, line_no)
    return _as_poly(frame, _ExprParser(frame, bound).parse(text, tokens, 0, line_no))


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
_BLANK_RUN = re.compile(r"[ \t]+")


def _joined_statements(text: str):
    "Physical lines, ending at \\n, \\r\\n or \\r, joined while parentheses stay open."
    out = []
    buf = ""
    start = None
    depth = 0
    for no, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
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
    parser = None
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
            pname, value = _parse_param(stmt, line_no)
            if pname in params:
                raise ParseError(f"duplicate parameter {pname!r}", line_no)
            if frame is not None and pname in frame:
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
        if not (tokens[0].isidentifier() and tokens[1] == "="):
            raise ParseError(f"cannot parse statement starting with {head!r}", line_no)
        dname = tokens[0]
        if frame is None:
            raise ParseError("missing frame declaration before definitions", line_no)
        if dname in RESERVED:
            raise ParseError(f"reserved name {dname!r}", line_no)
        if dname in definitions:
            raise ParseError(f"duplicate definition {dname!r}", line_no)
        if dname in params or dname in frame:
            raise ParseError(f"definition {dname!r} shadows another name", line_no)
        parser = parser or _ExprParser(frame, params)
        definitions[dname] = _as_poly(frame, parser.parse(stmt, tokens, 2, line_no))
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
    if tokens[1] != "complex":  # after 'frame'
        raise ParseError("frame starts with 'complex'", line_no, _column(stmt, 1))
    pos = 2
    while tokens[pos].isidentifier() and tokens[pos] != "real":
        pos += 1
    complex_names, real_names = tokens[2:pos], []
    if tokens[pos] == ";":
        if tokens[pos + 1] != "real":
            raise ParseError("expected 'real' after ';'", line_no, _column(stmt, pos + 1))
        start = pos = pos + 2
        while tokens[pos].isidentifier():
            pos += 1
        real_names = tokens[start:pos]
    if tokens[pos]:
        raise ParseError(f"unexpected {_shown(tokens[pos])} in frame", line_no, _column(stmt, pos))
    try:
        return VariableFrame(tuple(complex_names), tuple(real_names))
    except ValueError as e:
        raise ParseError(str(e), line_no) from None


_NO_COORDINATES = VariableFrame((), ())


def _constant_expr(stmt, tokens, start, line_no):
    "tokens[start:] of stmt on the empty frame, where every value is a constant term."
    return from_triple(*_ExprParser(_NO_COORDINATES, {}).parse(stmt, tokens, start, line_no)[:3])


def _parse_param(stmt, line_no):
    tokens = _lex(stmt, line_no)
    if not tokens[1].isidentifier():
        raise ParseError("param needs a name", line_no)
    pname = tokens[1]
    if pname in RESERVED:
        raise ParseError(f"reserved name {pname!r}", line_no)
    if not tokens[2]:
        return pname, None
    if tokens[2] != "=":
        raise ParseError("expected '=' in param", line_no, _column(stmt, 2))
    return pname, _constant_expr(stmt, tokens, 3, line_no)


def _parse_expect(stmt, line_no):
    tokens = _lex(stmt, line_no)
    if not tokens[1].isidentifier() or tokens[2] != "=":
        raise ParseError("expect syntax: expect <key> = <value>", line_no)
    key = tokens[1]
    if tokens[3] in ("true", "false") and not tokens[4]:
        return key, tokens[3] == "true"
    return key, _constant_expr(stmt, tokens, 3, line_no)


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
