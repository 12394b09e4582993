"""Small expression language for integrand functions of one variable.

Grammar (precedence ^ above unary minus above * and / above + and -,
with ^ right-associative):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-")? power
    power  := atom ("^" factor)?
    atom   := NUMBER | "x" | "pi" | "e" | IDENT "(" expr ")" | "(" expr ")"
    IDENT  := a name in FUNCTIONS

The integration variable is written x, and a NUMBER must be finite as a
double.  Parsing reports byte offsets and the token set that would have been
accepted; evaluation reports domain faults (log of a nonpositive value,
division by zero, fractional powers of negative numbers and the like)
instead of letting NaN or infinity propagate.
"""

from dataclasses import dataclass
import math
import re
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ExprEvalError, ExprSyntaxError, all_finite, check_real

MAX_SOURCE_BYTES = 64 * 1024

# Deepest tree, and nesting of brackets, calls and exponents, parse_expr takes.
_MAX_DEPTH = 100

# Every node op: (NumPy function of the operand arrays, domain faults).  Each
# fault is a test on the operands and the reason it gives, checked in order;
# a result that is not finite is then reported as an overflow.
_OPS = {
    "neg": (np.negative, ()),
    "ln": (np.log, ((lambda a: a <= 0.0, "logarithm of a nonpositive value"),)),
    "exp": (np.exp, ()),
    "sqrt": (np.sqrt, ((lambda a: a < 0.0, "square root of a negative value"),)),
    "abs": (np.abs, ()),
    "sin": (np.sin, ()),
    "cos": (np.cos, ()),
    "add": (np.add, ()),
    "sub": (np.subtract, ()),
    "mul": (np.multiply, ()),
    "div": (np.divide, ((lambda a, b: b == 0.0, "division by zero"),)),
    "pow": (np.power, (
        (lambda a, b: (a < 0.0) & (b != np.floor(b)), "fractional power of a negative value"),
        (lambda a, b: (a == 0.0) & (b < 0.0), "zero raised to a negative power"),
    )),
}


class _Infix(NamedTuple):
    op: str  # a key of _OPS
    prec: int
    text: str  # as serialize writes it


# Binary operators by token.  The ones below unary minus are left-associative;
# ^, above it, is right-associative and its right operand may be a bare factor.
_INFIX = {
    "+": _Infix("add", 1, " + "),
    "-": _Infix("sub", 1, " - "),
    "*": _Infix("mul", 2, "*"),
    "/": _Infix("div", 2, "/"),
    "^": _Infix("pow", 4, "^"),
}
_NEG_PREC = 3  # unary minus
_BY_OP = {infix.op: infix for infix in _INFIX.values()}

# The functions are the unary ops other than negation.
FUNCTIONS = tuple(op for op in _OPS if op != "neg" and op not in _BY_OP)

_CONSTANTS = {"pi": math.pi, "e": math.e}

_ATOM_EXPECTED = frozenset({"NUMBER", "x", "(", "-", *_CONSTANTS, *FUNCTIONS})


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self):
        check_real("Const value", self.value)


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Unary:
    op: str  # neg or a function name
    arg: "Node"

    def __post_init__(self):
        if self.op not in _UNARY_OPS or not isinstance(self.arg, Node):
            raise _bad_node(self, _UNARY_OPS)


@dataclass(frozen=True)
class Binary:
    op: str  # the op of an _INFIX entry
    lhs: "Node"
    rhs: "Node"

    def __post_init__(self):
        if not (self.op in _BY_OP and isinstance(self.lhs, Node) and isinstance(self.rhs, Node)):
            raise _bad_node(self, _BY_OP)


Node = Const | Var | Unary | Binary

_UNARY_OPS = frozenset({"neg", *FUNCTIONS})


def _bad_node(node, ops):
    operands = ", ".join(type(child).__name__ for child in list(vars(node).values())[1:])
    return DomainError(
        f"{type(node).__name__} takes an op in {sorted(ops)} and node operands, "
        f"got {node.op!r} on {operands}"
    )


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
        self.pos += 1

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

    def expr(self, prec=1):
        """Factors joined by operators of precedence >= prec, left-associative
        (a factor never stops at ^, so only those below unary minus come up)."""
        node = self.factor()
        while (infix := _INFIX.get(self.peek().kind)) is not None and infix.prec >= prec:
            self.take()
            node = Binary(infix.op, node, self.expr(infix.prec + 1))
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
            node = Binary(_INFIX["^"].op, node, self.nested(self.factor))
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.take()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(
                    f"number {tok.text!r} at offset {tok.offset} overflows a double",
                    tok.offset,
                    frozenset(),
                )
            return Const(value)
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
        parser.fail({*_INFIX, "end of input"})
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


def serialize(node):
    """Render an AST back to source that reparses to an equal tree."""
    return _render(node, 0)


def _render(node, context):
    if isinstance(node, Const):
        if node.value < 0.0 or (node.value == 0.0 and math.copysign(1.0, node.value) < 0):
            return _render(Unary("neg", Const(-node.value)), context)
        return str(int(node.value)) if float(node.value).is_integer() else repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Unary):
        if node.op == "neg":
            # The operand of unary minus sits at power level in the grammar.
            text = "-" + _render(node.arg, _INFIX["^"].prec)
            return f"({text})" if context > _NEG_PREC else text
        return f"{node.op}({_render(node.arg, 0)})"
    infix = _BY_OP[node.op]
    if infix.prec > _NEG_PREC:  # ^: right-associative, its right operand a bare factor
        left, right = _render(node.lhs, infix.prec + 1), _render(node.rhs, _NEG_PREC)
    else:
        left, right = _render(node.lhs, infix.prec), _render(node.rhs, infix.prec + 1)
    text = left + infix.text + right
    return f"({text})" if context > infix.prec else text


def _eval(node, x):
    if isinstance(node, Const):
        return np.full_like(x, node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        args = (_eval(node.arg, x),)
    else:
        args = (_eval(node.lhs, x), _eval(node.rhs, x))
    fn, faults = _OPS[node.op]
    for test, reason in faults:
        bad = test(*args)
        if bad.any():
            raise ExprEvalError(reason, serialize(node), float(x[bad][0]))
    out = fn(*args)
    if not np.isfinite(out).all():
        raise ExprEvalError("overflow", serialize(node), float(x[~np.isfinite(out)][0]))
    return out


def eval_expr(ast, tau):
    """Evaluate an AST at tau (scalar or numpy array of the same shape out)."""
    scalar = np.isscalar(tau) or np.ndim(tau) == 0
    try:
        x = np.atleast_1d(np.asarray(tau, dtype=float))
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"tau must be real numbers, got {tau!r}") from None
    # Overflow becomes an ExprEvalError via the finiteness checks, so the
    # intermediate warnings carry no information.
    with np.errstate(over="ignore"):
        if not all_finite(x):
            bad = float(x[~np.isfinite(x)][0])
            raise DomainError(f"expression evaluated at a non-finite point tau={bad!r}")
        out = _eval(ast, x)
    return float(out[0]) if scalar else out.reshape(np.shape(tau))


def as_function(ast):
    """Wrap an AST as a plain callable suitable for the operators."""
    return lambda tau: eval_expr(ast, tau)
