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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import kernel
from .errors import ExpressionSyntaxError, UnknownSymbolError
from .kernel import ELEMENTARY_FUNCTIONS, Expression, Gen

__all__ = ["parse", "format_expression", "format_gen", "format_poly"]

_NUM, _NAME, _OP, _END = "num", "name", "op", "end"
_OPS = set("+-*/^(),")


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
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

    def parse_expr(self) -> Expression:
        e = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == _OP and val in "+-":
                self.next()
                rhs = self.parse_term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def parse_term(self) -> Expression:
        e = self.parse_unary()
        while True:
            kind, val, _ = self.peek()
            if kind == _OP and val in "*/":
                self.next()
                rhs = self.parse_unary()
                e = e * rhs if val == "*" else e / rhs
            else:
                return e

    def parse_unary(self) -> Expression:
        kind, val, _ = self.peek()
        if kind == _OP and val == "-":
            self.next()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == _OP and val == "^":
            self.next()
            return base ** self.parse_int_exponent()
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

    def parse_atom(self) -> Expression:
        kind, val, at = self.next()
        if kind == _NUM:
            return kernel.const_expr(Fraction(val))
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
                args = [self.parse_expr()]
                while True:
                    k2, v2, _ = self.peek()
                    if k2 == _OP and v2 == ",":
                        self.next()
                        args.append(self.parse_expr())
                    else:
                        break
                self.expect(")")
                if val in ELEMENTARY_FUNCTIONS:
                    if len(args) != 1:
                        raise ExpressionSyntaxError(
                            "%s takes exactly one argument" % val
                        )
                    return kernel.elem(val, args[0])
                return kernel.app(val, tuple(args), (0,) * len(args), self.rules)
            return self.symbol(val, at)
        raise ExpressionSyntaxError(
            "unexpected token %r at position %d in %r" % (val, at, self.text)
        )

    def parse_derivative_node(self) -> Expression:
        kind, fname, at = self.next()
        if kind != _NAME:
            raise ExpressionSyntaxError("D(...) needs a function name (position %d)" % at)
        if fname in ELEMENTARY_FUNCTIONS:
            raise ExpressionSyntaxError(
                "D(...) is for abstract functions, not %r" % fname
            )
        self.expect(",")
        arg = self.parse_expr()
        order = 1
        kind, val, _ = self.peek()
        if kind == _OP and val == ",":
            self.next()
            order = self.parse_int_literal()
            if order < 0:
                raise ExpressionSyntaxError("derivative order must be nonnegative")
        self.expect(")")
        return kernel.app(fname, (arg,), (order,), self.rules)

    def symbol(self, name, at) -> Expression:
        if self.allowed is None or name in self.allowed:
            return kernel.sym(name)
        if self.auto_apply_var is not None:
            # Rule right-hand sides: a bare function name means the function
            # applied at the rule variable.
            return kernel.app(name, (kernel.sym(self.auto_apply_var),), (0,), self.rules)
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

    ``allowed`` restricts bare identifiers (None allows anything);
    ``auto_apply_var`` enables the rule-RHS convention where a bare unknown
    identifier f means f(var).
    """
    p = _Parser(text, None if allowed is None else set(allowed), rules, auto_apply_var)
    e = p.parse_expr()
    kind, val, at = p.peek()
    if kind != _END:
        raise ExpressionSyntaxError(
            "trailing input %r at position %d in %r" % (val, at, text)
        )
    return e


# ---------------------------------------------------------------------------
# Printing.


def format_gen(g: Gen) -> str:
    if g.kind == 0:  # symbol
        return g.name
    if g.kind == 2:  # elementary
        return "%s(%s)" % (g.name, format_expression(g.args[0]))
    total = sum(g.orders)
    args = ", ".join(format_expression(a) for a in g.args)
    if total == 0:
        return "%s(%s)" % (g.name, args)
    return "D(%s, %s, %d)" % (g.name, args, total)


def _format_mono(m, coeff: Fraction) -> str:
    parts = []
    if not m:
        return str(abs(coeff))
    ac = abs(coeff)
    if ac != 1:
        parts.append(str(ac))
    for g, e in sorted(m, key=lambda t: t[0].key):
        s = format_gen(g)
        parts.append(s if e == 1 else "%s^%d" % (s, e))
    return "*".join(parts)


def format_poly(p) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for i, (m, c) in enumerate(p.sorted_terms()):
        body = _format_mono(m, c)
        if i == 0:
            pieces.append("-" + body if c < 0 else body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)


def format_expression(e: Expression) -> str:
    if e.den.is_one():
        return format_poly(e.num)
    return "(%s)/(%s)" % (format_poly(e.num), format_poly(e.den))
