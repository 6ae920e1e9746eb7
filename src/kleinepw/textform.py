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


def _tokenize(src):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            break
        ws = src[pos : m.start(m.lastindex)]
        for ch in ws:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        text = m.group(m.lastindex)
        kind = ("int", "name", "op", "bad")[m.lastindex - 1]
        if kind == "bad":
            raise PolyParseError(f"unexpected character {text!r}", line, col)
        tokens.append((kind, text, line, col))
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(("end", "", line, col))
    return tokens


def parse_polynomial(src: str, variables) -> MultiPoly:
    """Parse the textual form into a MultiPoly.

    `variables` is either an int (variable names default to x0..x{n-1})
    or an explicit sequence of names, at most MAX_VARIABLES of them, each
    distinct and spelled by VAR, or some index could not be written.
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
    tokens = _tokenize(src)
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_factor():
        kind, text, line, col = take()
        if kind == "int":
            return MultiPoly.const(nvars, int(text))
        if kind == "name":
            if text not in index:
                raise PolyParseError(f"unknown variable {text!r}", line, col)
            exp = 1
            if peek()[0] == "op" and peek()[1] == "^":
                take()
                ek, etext, eline, ecol = take()
                if ek != "int":
                    raise PolyParseError("expected integer exponent", eline, ecol)
                exp = int(etext)
                if exp > MAX_EXPONENT:
                    raise PolyParseError(f"exponent {exp} too large", eline, ecol)
            e = [0] * nvars
            e[index[text]] = exp
            return MultiPoly(nvars, {tuple(e): 1})
        raise PolyParseError(f"expected integer or variable, got {text!r}", line, col)

    def parse_term():
        p = parse_factor()
        while peek()[0] == "op" and peek()[1] == "*":
            take()
            p = p * parse_factor()
        return p

    result = MultiPoly.zero(nvars)
    sign = 1
    if peek()[0] == "op" and peek()[1] in "+-":
        sign = -1 if take()[1] == "-" else 1
    result = result + sign * parse_term()
    while peek()[0] != "end":
        kind, text, line, col = take()
        if kind != "op" or text not in "+-":
            raise PolyParseError(f"expected '+' or '-', got {text!r}", line, col)
        result = result + (-1 if text == "-" else 1) * parse_term()
    return result


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
