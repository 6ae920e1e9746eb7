"""Plain-text polynomial format: parser and canonical emitter.

Grammar (whitespace insignificant):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := INT | VAR ('^' INT)?

Variables are named identifiers (x0..x9 or pair-indexed names such as
x00, x12); the caller supplies the variable-name list, distinct names
that VAR spells, whose order fixes the variable indices of the
resulting MultiPoly.  Integer coefficients only.  Parse errors carry
line and column.
"""

from __future__ import annotations

import re

from .poly import MultiPoly

MAX_EXPONENT = 4096
# every term carries an exponent tuple this long; the shipped ideals use
# at most 20 coordinates (the Pluecker coordinates of Gr(3, 6))
MAX_VARIABLES = 64


class PolyParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN = re.compile(rf"\s*(?:(\d+)|({_NAME})|([-+*^()])|(\S))")


def _parse_error(message, src, at):
    """A PolyParseError at offset `at` of src, with its line and column."""
    return PolyParseError(message, src.count("\n", 0, at) + 1, at - src.rfind("\n", 0, at))


def parse_polynomial(src: str, variables) -> MultiPoly:
    """Parse the textual form into a MultiPoly.

    `variables` is either an int (variable names default to x0..x{n-1})
    or an explicit sequence of names, at most MAX_VARIABLES of them, each
    distinct and spelled by VAR, or some index could not be written.
    One pass: each term's coefficient and exponents are read directly, and
    one MultiPoly collects the terms in the order they are written.
    """
    nvars = variables if isinstance(variables, int) else len(variables)
    if nvars > MAX_VARIABLES:
        raise ValueError(f"{nvars} variables, more than the {MAX_VARIABLES} allowed")
    if isinstance(variables, int):
        names = [f"x{i}" for i in range(variables)]
    else:
        names = list(variables)
    index = {name: i for i, name in enumerate(names)}
    for i, name in enumerate(names):
        if index[name] != i or not re.fullmatch(_NAME, name):
            raise ValueError(f"variable names must be distinct and match {_NAME}, got {name!r}")
    # (kind, text, offset); kind is the matching _TOKEN group: 1 INT, 2 VAR,
    # 3 operator, 4 a stray character; the end token has kind 0 and no text
    tokens = [(m.lastindex, m[m.lastindex], m.start(m.lastindex)) for m in _TOKEN.finditer(src)]
    for kind, text, at in tokens:
        if kind == 4:
            raise _parse_error(f"unexpected character {text!r}", src, at)
    tokens.append((0, "", tokens[-1][2] + len(tokens[-1][1]) if tokens else 0))
    terms = []
    sign, i = 1, 0
    if tokens[0][0] == 3 and tokens[0][1] in "+-":
        sign, i = -1 if tokens[0][1] == "-" else 1, 1
    while True:
        coeff, exps = sign, [0] * nvars
        while True:  # the factors of one term
            kind, text, at = tokens[i]
            i += 1
            if kind == 1:
                coeff *= int(text)
            elif kind == 2:
                if text not in index:
                    raise _parse_error(f"unknown variable {text!r}", src, at)
                exp = 1
                if tokens[i][1] == "^":
                    kind, etext, at = tokens[i + 1]
                    i += 2
                    if kind != 1:
                        raise _parse_error("expected integer exponent", src, at)
                    exp = int(etext)
                    if exp > MAX_EXPONENT:
                        raise _parse_error(f"exponent {exp} too large", src, at)
                exps[index[text]] += exp
            else:
                raise _parse_error(f"expected integer or variable, got {text!r}", src, at)
            if tokens[i][1] != "*":
                break
            i += 1
        terms.append((exps, coeff))
        kind, text, at = tokens[i]
        if not kind:
            return MultiPoly(nvars, terms)
        i += 1
        if kind != 3 or text not in "+-":
            raise _parse_error(f"expected '+' or '-', got {text!r}", src, at)
        sign = -1 if text == "-" else 1


def emit_polynomial(p: MultiPoly, variables=None) -> str:
    """Canonical text: terms in grevlex-descending order, integer
    coefficients, deterministic across runs and platforms.  The variables
    are named by the given sequence, or x0, x1, ... without one."""
    names = [f"x{i}" for i in range(p.nvars)] if variables is None else list(variables)
    if p.is_zero():
        return "0"
    bits = []
    for e, c in p.sorted_terms():
        if c != int(c):
            raise ValueError("canonical text form requires integer coefficients")
        c = int(c)
        mono = "*".join(
            f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k
        )
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not bits:
            bits.append(body if c > 0 else f"-{body}")
        else:
            bits.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(bits)


def poly_monomials_json(p: MultiPoly):
    """JSON-friendly listing: grevlex-descending [exponents, coefficient]
    pairs with the coefficient rendered as a decimal string."""
    out = []
    for e, c in p.sorted_terms():
        out.append({"exponents": list(e), "coefficient": str(c)})
    return out
