"""Small expression language for integrand functions of one variable.

Grammar (precedence ^ above unary minus above * and / above + and -,
with ^ right-associative):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-")? power
    power  := atom ("^" factor)?
    atom   := NUMBER | "x" | "pi" | "e" | IDENT "(" expr ")" | "(" expr ")"
    IDENT  := "ln" | "exp" | "sqrt" | "abs" | "sin" | "cos"

The integration variable is written x.  Parsing reports byte offsets and the
token set that would have been accepted; evaluation reports domain faults
(log of a nonpositive value, division by zero, fractional powers of negative
numbers and the like) instead of letting NaN or infinity propagate.
"""

from dataclasses import dataclass
import math
import re
from typing import NamedTuple

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

MAX_SOURCE_BYTES = 64 * 1024

# Deepest tree, and nesting of brackets, calls and exponents, parse_expr takes.
_MAX_DEPTH = 100

FUNCTIONS = ("ln", "exp", "sqrt", "abs", "sin", "cos")

_CONSTANTS = {"pi": math.pi, "e": math.e}

_ATOM_EXPECTED = frozenset({"NUMBER", "x", "pi", "e", "(", "-"} | set(FUNCTIONS))


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Unary:
    op: str  # neg | ln | exp | sqrt | abs | sin | cos
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul | div | pow
    lhs: "Node"
    rhs: "Node"


Node = Const | Var | Unary | Binary


class _Token(NamedTuple):
    kind: str  # NUM | NAME | one of + - * / ^ ( ) , | END
    text: str
    offset: int


# A number, a name, a symbol, blanks, or any other character.
_TOKEN = re.compile(
    r"(?P<NUM>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<NAME>[A-Za-z]+)|(?P<SYM>[-+*/^(),])"
    r"|(?P<BLANK>[ \t\r\n]+)|(?P<BAD>.)",
    re.ASCII | re.DOTALL,
)


def _tokenize(text):
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, word, i = match.lastgroup, match[0], match.start()
        if kind == "BAD":
            what = "non-ASCII" if ord(word) > 127 else "unexpected"
            raise ExprSyntaxError(f"{what} character {word!r} at offset {i}", i, frozenset())
        if kind != "BLANK":
            tokens.append(_Token(word if kind == "SYM" else kind, word, i))
    tokens.append(_Token("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        shown = tok.text if tok.kind != "END" else "end of input"
        raise ExprSyntaxError(
            f"unexpected {shown!r} at offset {tok.offset}; expected one of "
            f"{sorted(expected)}",
            tok.offset,
            frozenset(expected),
        )

    def nested(self, parse):
        """parse() one level deeper; ExprSyntaxError past _MAX_DEPTH levels."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise _too_deep(self.peek().offset)
        node = parse()
        self.depth -= 1
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            node = Binary("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind in "*/":
            op = self.take().kind
            node = Binary("mul" if op == "*" else "div", node, self.factor())
        return node

    def factor(self):
        if self.peek().kind == "-":
            self.take()
            return Unary("neg", self.power())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.take()
            node = Binary("pow", node, self.nested(self.factor))
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.take()
            return Const(float(tok.text))
        if tok.kind == "NAME":
            self.take()
            if tok.text == "x":
                return Var()
            if tok.text in _CONSTANTS:
                return Const(_CONSTANTS[tok.text])
            if tok.text in FUNCTIONS:
                if self.peek().kind != "(":
                    self.fail({"("})
                self.take()
                arg = self.nested(self.expr)
                if self.peek().kind == ",":
                    raise ExprSyntaxError(
                        f"{tok.text} takes exactly one argument (offset "
                        f"{self.peek().offset})",
                        self.peek().offset,
                        frozenset({")"}),
                    )
                if self.peek().kind != ")":
                    self.fail({")"})
                self.take()
                return Unary(tok.text, arg)
            raise ExprSyntaxError(
                f"unknown identifier {tok.text!r} at offset {tok.offset}",
                tok.offset,
                _ATOM_EXPECTED,
            )
        if tok.kind == "(":
            self.take()
            node = self.nested(self.expr)
            if self.peek().kind != ")":
                self.fail({")"})
            self.take()
            return node
        self.fail(_ATOM_EXPECTED)


def parse_expr(text):
    """Parse source text into an AST; see the module grammar."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0, _ATOM_EXPECTED)
    if len(text.encode("utf-8", errors="replace")) > MAX_SOURCE_BYTES:
        raise ExprSyntaxError(
            f"expression longer than {MAX_SOURCE_BYTES} bytes", MAX_SOURCE_BYTES,
            frozenset(),
        )
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    if parser.peek().kind != "END":
        parser.fail({"+", "-", "*", "/", "^", "end of input"})
    # Each node takes a token, so only a long expression can be too deep.
    if len(parser.tokens) > _MAX_DEPTH:
        _check_height(node, _MAX_DEPTH)
    return node


def _too_deep(offset):
    return ExprSyntaxError(f"expression deeper than {_MAX_DEPTH} levels", offset, frozenset())


def _check_height(node, levels):
    """Raise ExprSyntaxError if the tree under `node` has over `levels` levels."""
    if levels < 1:
        raise _too_deep(0)
    for child in vars(node).values():
        if isinstance(child, Node):
            _check_height(child, levels - 1)


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def serialize(node):
    """Render an AST back to source that reparses to an equal tree."""
    return _render(node, 0)


def _render(node, context):
    if isinstance(node, Const):
        if node.value < 0.0 or (node.value == 0.0 and math.copysign(1.0, node.value) < 0):
            return _render(Unary("neg", Const(-node.value)), context)
        return repr(node.value) if node.value != int(node.value) else str(int(node.value))
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Unary):
        if node.op == "neg":
            # The operand of unary minus sits at power level in the grammar.
            text = "-" + _render(node.arg, _PREC["pow"])
            return f"({text})" if context > _PREC["neg"] else text
        return f"{node.op}({_render(node.arg, 0)})"
    prec = _PREC[node.op]
    symbol = {"add": " + ", "sub": " - ", "mul": "*", "div": "/", "pow": "^"}[node.op]
    if node.op == "pow":
        # Right-associative; the right operand may be a bare factor.
        left = _render(node.lhs, prec + 1)
        right = _render(node.rhs, _PREC["neg"])
    else:
        left = _render(node.lhs, prec)
        right = _render(node.rhs, prec + 1)
    text = left + symbol + right
    return f"({text})" if context > prec else text


def _fault(node, values, mask, reason):
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    bad = np.atleast_1d(mask)
    tau = float(arr[bad][0]) if arr.shape == bad.shape else float("nan")
    raise ExprEvalError(reason, serialize(node), tau)


def _eval(node, x):
    if isinstance(node, Const):
        return np.full_like(x, node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        arg = _eval(node.arg, x)
        if node.op == "neg":
            return -arg
        if node.op == "ln":
            if np.any(arg <= 0.0):
                _fault(node, x, arg <= 0.0, "logarithm of a nonpositive value")
            return np.log(arg)
        if node.op == "sqrt":
            if np.any(arg < 0.0):
                _fault(node, x, arg < 0.0, "square root of a negative value")
            return np.sqrt(arg)
        if node.op == "exp":
            out = np.exp(arg)
            if not np.all(np.isfinite(out)):
                _fault(node, x, ~np.isfinite(out), "overflow")
            return out
        if node.op == "abs":
            return np.abs(arg)
        if node.op == "sin":
            return np.sin(arg)
        return np.cos(arg)
    lhs = _eval(node.lhs, x)
    rhs = _eval(node.rhs, x)
    if node.op == "add":
        out = lhs + rhs
    elif node.op == "sub":
        out = lhs - rhs
    elif node.op == "mul":
        out = lhs * rhs
    elif node.op == "div":
        if np.any(rhs == 0.0):
            _fault(node, x, rhs == 0.0, "division by zero")
        out = lhs / rhs
    else:
        neg_frac = (lhs < 0.0) & (rhs != np.floor(rhs))
        if np.any(neg_frac):
            _fault(node, x, neg_frac, "fractional power of a negative value")
        zero_neg = (lhs == 0.0) & (rhs < 0.0)
        if np.any(zero_neg):
            _fault(node, x, zero_neg, "zero raised to a negative power")
        out = lhs**rhs
    if not np.all(np.isfinite(out)):
        _fault(node, x, ~np.isfinite(out), "overflow")
    return out


def eval_expr(ast, tau):
    """Evaluate an AST at tau (scalar or numpy array of the same shape out)."""
    scalar = np.isscalar(tau) or np.ndim(tau) == 0
    x = np.atleast_1d(np.asarray(tau, dtype=float))
    # Overflow becomes an ExprEvalError via the finiteness checks, so the
    # intermediate warnings carry no information.
    with np.errstate(over="ignore"):
        out = _eval(ast, x)
    return float(out[0]) if scalar else out.reshape(np.shape(tau))


def as_function(ast):
    """Wrap an AST as a plain callable suitable for the operators."""
    return lambda tau: eval_expr(ast, tau)
