"""Term language for semigroup identities with unary inverses and idempotent
premises.

Concrete syntax::

    identity := [premises "=>"] word "=" word
    premises := premise ("," premise)*
    premise  := var "=" var "^2"        (both occurrences the same variable)
    word     := literal+
    literal  := var ["^-1" | "'"]
    var      := "x" positive-integer

Whitespace is insignificant.  ``x1'`` is accepted as a synonym for ``x1^-1``;
the canonical printer always emits ``^-1``.  A variable index is written in
ASCII digits, and leading zeros name the same variable.  Variables are
numbered as they are read, so the premise-constrained ones come first
(1..e), then the rest in order of first occurrence in the left word, then
the right word.  A word is a tuple of nonzero ints: ``v`` stands for
``x_v`` and ``-v`` for ``x_v^-1``.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .pbij import ValueType


class IdentitySyntaxError(ValueError):
    """Malformed identity text; carries the offending position (0-based)."""

    def __init__(self, message: str, position: int, expected: Optional[str] = None):
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class PremiseMismatchError(IdentitySyntaxError):
    """A premise is not of the shape ``xi = xi^2``."""


class EmptyWordError(IdentitySyntaxError):
    """One side of the equation has no literals."""


class Identity(ValueType):
    """``x1 = x1^2, ..., xe = xe^2  =>  u = v`` in canonical numbering; each
    word is a nonempty tuple of literals, ``v`` for ``x_v`` and ``-v`` for
    ``x_v^-1``, with 1 <= |v| <= ``num_vars``."""

    __slots__ = ("num_vars", "num_premises", "lhs", "rhs")

    def __init__(self, num_vars: int, num_premises: int,
                 lhs: tuple[int, ...], rhs: tuple[int, ...]):
        if num_vars < 1:
            raise ValueError("an identity mentions at least one variable")
        if not 0 <= num_premises <= num_vars:
            raise ValueError("premise count out of range")
        for word in (lhs, rhs):
            if not word:
                raise ValueError("words must be nonempty")
            for lit in word:
                if type(lit) is not int or not 0 < abs(lit) <= num_vars:
                    raise ValueError(f"literal {lit!r} is not a nonzero int "
                                     f"of absolute value at most {num_vars}")
        self.num_vars = num_vars
        self.num_premises = num_premises
        self.lhs = lhs
        self.rhs = rhs

    def __str__(self):
        return format_identity(self)


_TOKEN_RE = re.compile(r"x[0-9]+|\^-1|\^2|'|=>|=|,")
_WS_RE = re.compile(r"\s*")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        pos = _WS_RE.match(text, pos).end()
        if pos >= len(text):
            break
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise IdentitySyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, length):
        self.tokens = tokens
        self.at = 0
        self.length = length

    def peek(self):
        return self.tokens[self.at][0] if self.at < len(self.tokens) else None

    def pos(self):
        return self.tokens[self.at][1] if self.at < len(self.tokens) else self.length

    def take(self):
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def expect(self, text, what):
        if self.peek() != text:
            raise IdentitySyntaxError(
                f"unexpected {self.peek()!r}" if self.peek() else "unexpected end of input",
                self.pos(),
                expected=what,
            )
        return self.take()

    def var(self, what="a variable like x1"):
        tok = self.peek()
        if tok is None or not tok.startswith("x"):
            raise IdentitySyntaxError(
                f"unexpected {tok!r}" if tok else "unexpected end of input",
                self.pos(),
                expected=what,
            )
        text, pos = self.take()
        # keyed by its digits, not their value, so an index of any length parses
        v = text[1:].lstrip("0")
        if not v:
            raise IdentitySyntaxError(f"variable index must be positive, got {text}", pos)
        return v

    def word(self, side, numbers):
        """One side's literals; a variable not in ``numbers`` (digits ->
        canonical number) gets the next number there."""
        lits = []
        while True:
            tok = self.peek()
            if tok is None or not tok.startswith("x"):
                break
            v = numbers.setdefault(self.var(), len(numbers) + 1)
            if self.peek() in ("^-1", "'"):
                self.take()
                v = -v
            lits.append(v)
        if not lits:
            raise EmptyWordError(f"{side} side has no literals", self.pos())
        return tuple(lits)


def parse_identity(text: str) -> Identity:
    """Parse and canonicalize one identity."""
    tokens = _tokenize(text)
    implies = [i for i, (tok, _) in enumerate(tokens) if tok == "=>"]
    if len(implies) > 1:
        raise IdentitySyntaxError("more than one '=>'", tokens[implies[1]][1])

    numbers: dict[str, int] = {}
    if implies:
        # a premise list cut short is reported at its "=>"
        head = _Parser(tokens[: implies[0]], tokens[implies[0]][1])
        while True:
            start = head.pos()
            v1 = head.var()
            head.expect("=", "'='")
            v2 = head.var()
            if head.peek() != "^2" or v1 != v2:
                raise PremiseMismatchError(
                    f"premise must have the shape x{v1} = x{v1}^2", start
                )
            head.take()
            numbers.setdefault(v1, len(numbers) + 1)
            if head.peek() is None:
                break
            head.expect(",", "',' between premises")
        body = _Parser(tokens[implies[0] + 1 :], len(text))
    else:
        body = _Parser(tokens, len(text))

    num_premises = len(numbers)
    lhs = body.word("left", numbers)
    body.expect("=", "'=' between the two words")
    rhs = body.word("right", numbers)
    if body.peek() is not None:
        raise IdentitySyntaxError(f"trailing {body.peek()!r}", body.pos())
    return Identity(len(numbers), num_premises, lhs, rhs)


def format_identity(ident: Identity) -> str:
    """Canonical text; ``parse_identity(format_identity(i)) == i``."""
    eq = " = ".join(" ".join(f"x{v}" if v > 0 else f"x{-v}^-1" for v in word)
                    for word in (ident.lhs, ident.rhs))
    if ident.num_premises == 0:
        return eq
    premises = ", ".join(f"x{i}=x{i}^2" for i in range(1, ident.num_premises + 1))
    return f"{premises} => {eq}"


def apply_assignment(word: Sequence[int], assignment: Sequence):
    """Evaluate a word under elements assigned to x1..xm (left-to-right)."""
    acc = None
    for v in word:
        el = assignment[abs(v) - 1]
        if v < 0:
            el = el.inverse()
        acc = el if acc is None else acc * el
    return acc
