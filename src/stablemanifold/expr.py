"""Tiny arithmetic expression compiler for user-supplied scalar formulas.

Grammar (whitespace ignored)::

    expr   : term (('+' | '-') term)*
    term   : unary (('*' | '/') unary)*
    unary  : '-' unary | power
    power  : atom ('^' unary)?          # right associative, binds tighter than unary minus on the left
    atom   : NUMBER | NAME '(' expr ')' | NAME | '(' expr ')'

Supported functions: ``exp``, ``log`` (natural log).  Allowed variable names are
fixed at compile time; evaluation broadcasts over numpy arrays.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable

import numpy as np

__all__ = ["ExpressionError", "compile_expression"]


class ExpressionError(ValueError):
    """Raised when an expression fails to tokenize or parse."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS: dict[str, Callable] = {"exp": np.exp, "log": np.log}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        for kind in ("num", "name", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start(kind)))
                break
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: frozenset[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.variables = variables
        self.used: set[str] = set()  # the variables the text refers to
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, at = self.next()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r} at position {at} in {self.text!r}")

    def parse(self):
        node = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ExpressionError(f"trailing input {val!r} at position {at} in {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = (np.add, node, rhs) if val == "+" else (np.subtract, node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                node = (np.multiply, node, rhs) if val == "*" else (np.divide, node, rhs)
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return (np.negative, self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return (np.power, base, self.unary())
        return base

    def atom(self):
        kind, val, at = self.next()
        if kind == "num":
            return ("const", float(val))
        if kind == "name":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                fn = _FUNCTIONS.get(val)
                if fn is None:
                    raise ExpressionError(f"unknown function {val!r} at position {at}")
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return (fn, arg)
            if val not in self.variables:
                raise ExpressionError(
                    f"unknown variable {val!r} at position {at}; allowed: {sorted(self.variables)}"
                )
            self.used.add(val)
            return ("var", val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {val!r} at position {at} in {self.text!r}")


def _evaluate(node, env):
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "var":
        return env[node[1]]
    if len(node) == 2:
        return tag(_evaluate(node[1], env))
    return tag(_evaluate(node[1], env), _evaluate(node[2], env))


def compile_expression(text: str, variables: Iterable[str] = ("t",)) -> Callable:
    """Compile ``text`` into ``f(**vars) -> value`` broadcasting over numpy inputs.

    The result carries ``expression`` (the text), ``variables`` (the allowed
    names, sorted) and ``used`` (the names the text refers to, sorted).
    Raises :class:`ExpressionError` on malformed input or unknown names.
    """
    varset = frozenset(variables)
    parser = _Parser(text, varset)
    tree = parser.parse()

    def evaluate(**env):
        missing = varset - env.keys()
        if missing:
            raise TypeError(f"missing variables: {sorted(missing)}")
        return _evaluate(tree, env)

    evaluate.expression = text  # type: ignore[attr-defined]
    evaluate.variables = tuple(sorted(varset))  # type: ignore[attr-defined]
    evaluate.used = tuple(sorted(parser.used))  # type: ignore[attr-defined]
    return evaluate
