"""Expression text format: tokenizer, recursive-descent parser, printer.

Grammar (whitespace insignificant)::

    expr     := term (("+" | "-") term)*
    term     := unary (("*" | "/") unary)*
    unary    := "-" unary | power
    power    := atom ("^" integer)?
    atom     := rational | identifier | identifier "(" expr ("," expr)* ")"
              | "D" "(" identifier "," identifier ("," integer)? ")"
              | "(" expr ")"
    rational := integer | integer "/" integer | decimal

Decimal literals convert exactly (0.25 -> 1/4).  ``exp``, ``ln``, ``sin``,
``cos`` and ``sqrt`` are the elementary functions; any other applied
identifier is an abstract function, and ``D(f, x, k)`` is its k-th derivative
at the point of application.  The printer emits canonical forms only:
descending graded-lex terms, explicit derivative orders, never a negative
power (those live in the denominator), so printed output always re-parses to
an equal expression.

Parse cost: every polynomial sub-expression stays a kernel ``Poly``.  Sums,
differences, products, non-negative integer powers and division by a
constant are ``Poly`` arithmetic, which takes no polynomial gcd, and an
integer literal becomes a ``Poly`` without a ``Fraction``.  An
``Expression`` is built only at a division by a non-constant, at a negative
power, at an operation on a value that is already a quotient, for the
argument of a function or of ``D(...)``, and for the result; a polynomial
over 1 is already canonical.

Print cost: each canonical form is formatted once.  ``format_expression``
and ``format_gen`` keep their text in the object's ``_text`` slot, the terms
come from ``Poly.descending()`` (sorted once per Poly, shared with
``struct_key``), coefficients print from the Poly's ints, and each monomial
prints in its stored ascending generator-key order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from . import kernel
from .errors import ExpressionSyntaxError, UnknownSymbolError
from .kernel import ELEMENTARY_FUNCTIONS, Expression, Gen, Poly

__all__ = ["parse", "format_expression", "format_gen", "format_poly"]

_NUM, _NAME, _OP, _END = "num", "name", "op", "end"
_OPS = set("+-*/^(),")
_DIGITS = set("0123456789")  # str.isdigit also takes "²" and "١"


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            toks.append((_OP, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1] in _DIGITS:
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            toks.append((_NUM, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((_NAME, text[i:j], i))
            i = j
            continue
        raise ExpressionSyntaxError("unexpected character %r at position %d" % (ch, i))
    toks.append((_END, "", n))
    return toks


# Parsed values are a Poly while polynomial, else an Expression.


def _expr(v) -> Expression:
    return kernel.from_poly(v) if isinstance(v, Poly) else v


def _value(e: Expression):
    return e.num if e.den.is_one() else e


class _Parser:
    def __init__(self, text, allowed, rules, auto_apply_var):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.allowed = allowed          # None -> any symbol allowed
        self.rules = tuple(rules)
        self.auto_apply_var = auto_apply_var

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, value):
        kind, val, at = self.next()
        if kind != _OP or val != value:
            raise ExpressionSyntaxError(
                "expected %r at position %d in %r" % (value, at, self.text)
            )

    # grammar ---------------------------------------------------------------

    def parse_expr(self):
        v = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == _OP and val in "+-":
                self.next()
                rhs = self.parse_term()
                if isinstance(v, Poly) and isinstance(rhs, Poly):
                    v = v + rhs if val == "+" else v - rhs
                else:
                    v, rhs = _expr(v), _expr(rhs)
                    v = _value(v + rhs if val == "+" else v - rhs)
            else:
                return v

    def parse_term(self):
        v = self.parse_unary()
        while True:
            kind, val, _ = self.peek()
            if kind == _OP and val in "*/":
                self.next()
                rhs = self.parse_unary()
                both = isinstance(v, Poly) and isinstance(rhs, Poly)
                if val == "*":
                    v = v * rhs if both else _value(_expr(v) * _expr(rhs))
                elif both and rhs.terms and rhs.is_const():
                    v = v.over(rhs)
                else:
                    v = _value(_expr(v) / _expr(rhs))
            else:
                return v

    def parse_unary(self):
        kind, val, _ = self.peek()
        if kind == _OP and val == "-":
            self.next()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == _OP and val == "^":
            self.next()
            k = self.parse_int_exponent()
            if k >= 0 and isinstance(base, Poly):
                return base.pow_int(k)
            return _value(_expr(base) ** k)
        return base

    def parse_int_exponent(self) -> int:
        kind, val, _ = self.peek()
        paren = kind == _OP and val == "("
        if paren:
            self.next()
        sign = 1
        kind, val, _ = self.peek()
        if kind == _OP and val == "-":
            self.next()
            sign = -1
        kind, val, at = self.next()
        if kind != _NUM or "." in val:
            raise ExpressionSyntaxError("expected integer exponent at position %d" % at)
        if paren:
            self.expect(")")
        return sign * int(val)

    def parse_int_literal(self) -> int:
        sign = 1
        kind, val, _ = self.peek()
        if kind == _OP and val == "-":
            self.next()
            sign = -1
        kind, val, at = self.next()
        if kind != _NUM or "." in val:
            raise ExpressionSyntaxError("expected integer at position %d" % at)
        return sign * int(val)

    def parse_atom(self):
        kind, val, at = self.next()
        if kind == _NUM:
            return Poly.const(Fraction(val) if "." in val else int(val))
        if kind == _OP and val == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if kind == _NAME:
            nk, nv, _ = self.peek()
            if nk == _OP and nv == "(":
                self.next()
                if val == "D":
                    return self.parse_derivative_node()
                args = [_expr(self.parse_expr())]
                while True:
                    k2, v2, _ = self.peek()
                    if k2 == _OP and v2 == ",":
                        self.next()
                        args.append(_expr(self.parse_expr()))
                    else:
                        break
                self.expect(")")
                if val in ELEMENTARY_FUNCTIONS:
                    if len(args) != 1:
                        raise ExpressionSyntaxError(
                            "%s takes exactly one argument" % val
                        )
                    return Poly.from_gen(kernel.elem_gen(val, args[0]))
                return _value(kernel.app(val, tuple(args), (0,) * len(args), self.rules))
            return self.symbol(val, at)
        raise ExpressionSyntaxError(
            "unexpected token %r at position %d in %r" % (val, at, self.text)
        )

    def parse_derivative_node(self):
        kind, fname, at = self.next()
        if kind != _NAME:
            raise ExpressionSyntaxError("D(...) needs a function name (position %d)" % at)
        if fname in ELEMENTARY_FUNCTIONS:
            raise ExpressionSyntaxError(
                "D(...) is for abstract functions, not %r" % fname
            )
        self.expect(",")
        arg = _expr(self.parse_expr())
        order = 1
        kind, val, _ = self.peek()
        if kind == _OP and val == ",":
            self.next()
            order = self.parse_int_literal()
            if order < 0:
                raise ExpressionSyntaxError("derivative order must be nonnegative")
        self.expect(")")
        return _value(kernel.app(fname, (arg,), (order,), self.rules))

    def symbol(self, name, at):
        if self.allowed is None or name in self.allowed:
            return Poly.from_gen(kernel.sym_gen(name))
        if self.auto_apply_var is not None:
            # Rule right-hand sides: a bare function name means the function
            # applied at the rule variable.
            return _value(
                kernel.app(name, (kernel.sym(self.auto_apply_var),), (0,), self.rules)
            )
        raise UnknownSymbolError(
            "unknown symbol %r at position %d in %r" % (name, at, self.text)
        )


def parse(
    text: str,
    allowed: Optional[Sequence[str]] = None,
    rules: Sequence[kernel.RewriteRule] = (),
    auto_apply_var: Optional[str] = None,
) -> Expression:
    """Parse text into a canonical Expression.

    ``allowed`` restricts bare identifiers (None allows anything; a set or
    frozenset is used as it is); ``auto_apply_var`` enables the rule-RHS
    convention where a bare unknown identifier f means f(var).
    """
    if allowed is not None and not isinstance(allowed, (set, frozenset)):
        allowed = set(allowed)
    p = _Parser(text, allowed, rules, auto_apply_var)
    v = p.parse_expr()
    kind, val, at = p.peek()
    if kind != _END:
        raise ExpressionSyntaxError(
            "trailing input %r at position %d in %r" % (val, at, text)
        )
    return _expr(v)


# ---------------------------------------------------------------------------
# Printing.


def format_gen(g: Gen) -> str:
    text = g._text
    if text is None:
        if g.kind == kernel.SYM_KIND:
            text = g.name
        elif g.kind == kernel.ELEM_KIND:
            text = "%s(%s)" % (g.name, format_expression(g.args[0]))
        else:
            total = sum(g.orders)
            args = ", ".join(format_expression(a) for a in g.args)
            if total == 0:
                text = "%s(%s)" % (g.name, args)
            else:
                text = "D(%s, %s, %d)" % (g.name, args, total)
        g._text = text
    return text


def format_poly(p: Poly) -> str:
    terms, cn, cd = p.terms, p.cn, p.cd
    if not terms:
        return "0"
    pieces = []
    for m in p.descending():
        n = terms[m] * cn
        if pieces:
            pieces.append(" - " if n < 0 else " + ")
        elif n < 0:
            pieces.append("-")
        n = abs(n)
        d = cd
        if d != 1:
            g = math.gcd(n, d)
            n, d = n // g, d // g
        coeff = str(n) if d == 1 else "%d/%d" % (n, d)
        if m:
            body = "*".join(
                format_gen(g) if e == 1 else "%s^%d" % (format_gen(g), e) for g, e in m
            )
            if coeff != "1":
                body = coeff + "*" + body
        else:
            body = coeff
        pieces.append(body)
    return "".join(pieces)


def format_expression(e: Expression) -> str:
    text = e._text
    if text is None:
        if e.den.is_one():
            text = format_poly(e.num)
        else:
            text = "(%s)/(%s)" % (format_poly(e.num), format_poly(e.den))
        e._text = text
    return text
