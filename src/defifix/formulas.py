"""First-order formulas over the language of rings: AST, parser, printer,
one structural walk (`subformulas`, `map_subformulas`), and brute-force
evaluation, with terms compiled on the ring `fields.ring` picks: the
integer kernel for a quantifier or a definable set over a finite field.

Grammar (precedence from loosest to tightest):

    formula := "exists" var "." formula | "forall" var "." formula | disj
    disj    := conj ("|" conj)*
    conj    := impl ("&" impl)*
    impl    := lit (("->" | "<->") lit)?
    lit     := "~" lit | "(" formula ")" | atom
    atom    := term ("=" | "!=") term | NAME "(" term ("," term)* ")"
    term    := polynomial over "+ - * ^" , variables, integer constants,
               and division by nonzero integer constants (rationals)
    NAME    := ASCII letter or "_", then ASCII letters, digits and "_"

The lexer is one token table, `_TOKEN_RE`: after whitespace, a NAME (the
pattern `is_name` matches), an integer of ASCII digits, punctuation, or any
other character, an error. Tokens carry their offset in the text; a syntax
error reports its line and column, both from 1, where only "\n" starts a line.

"a != b" is sugar for "~(a = b)" and the printer emits it back in that
form. Conjunction and disjunction chains are stored as n-ary nodes in
source order; parenthesized groups stay nested, so parse(print(f)) is a
structural identity.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import EvaluationError, FormulaSyntaxError, InfiniteFieldError
from .fields import FieldDescriptor, FieldElement, IntField, int_field, ring
from .terms import Term

Formula = Union[
    "Equal", "PredicateApp", "Not", "And", "Or", "Implies", "Iff", "Exists", "ForAll"
]


@dataclass(frozen=True)
class Equal:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class PredicateApp:
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Not:
    body: Formula


@dataclass(frozen=True)
class And:
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Or:
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Implies:
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Iff:
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Exists:
    var: str
    body: Formula


@dataclass(frozen=True)
class ForAll:
    var: str
    body: Formula


def conj(parts) -> Formula:
    parts = tuple(parts)
    return parts[0] if len(parts) == 1 else And(parts)


def disj(parts) -> Formula:
    parts = tuple(parts)
    return parts[0] if len(parts) == 1 else Or(parts)


# -- tokenizer ---------------------------------------------------------------

_KEYWORDS = {"exists", "forall"}
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# Each match skips whitespace and takes the first entry that fits; OTHER
# takes any other character, so only trailing whitespace goes unmatched.
_TOKEN_RE = re.compile(
    r"\s*(?:"
    rf"(?P<NAME>{_NAME})"
    r"|(?P<INT>[0-9]+)"
    r"|(?P<PUNCT><->|->|!=|[()+\-*^=,.|&~/])"
    r"|(?P<OTHER>\S))"
)
# the tokens that can follow a parenthesized term inside an atom
_AFTER_TERM = frozenset(("^", "*", "/", "+", "-", "=", "!="))


def is_name(text: str) -> bool:
    """Whether text reads as one variable or predicate name."""
    # compiled on first use, through re's cache: only schemas ask
    return re.fullmatch(_NAME, text) is not None and text not in _KEYWORDS


@dataclass
class _Token:
    kind: str  # NAME INT PUNCT END
    text: str
    pos: int  # offset in the source text


def _position(text: str, pos: int) -> tuple[int, int]:
    """Line and column, both from 1, of offset pos in text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "OTHER":
            raise FormulaSyntaxError(
                f"unexpected character {m.group(kind)!r}", *_position(text, m.start(kind))
            )
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
    tokens.append(_Token("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        # position of each "(" -> position just after its matching ")"
        self.after_group: dict[int, int] = {}
        opened = []
        for pos, tok in enumerate(self.tokens):
            if tok.text == "(":
                opened.append(pos)
            elif tok.text == ")" and opened:
                self.after_group[opened.pop()] = pos + 1

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def error(self, message: str):
        raise FormulaSyntaxError(message, *_position(self.text, self.peek().pos))

    def whole(self, result):
        """result, once the input is read to its end."""
        tok = self.peek()
        if tok.kind != "END":
            self.error(f"unexpected trailing input {tok.text!r}")
        return result

    # -- formula levels ----------------------------------------------------

    def formula(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NAME" and tok.text in _KEYWORDS:
            self.next()
            var = self.peek()
            if var.kind != "NAME" or var.text in _KEYWORDS:
                self.error("expected a variable name after quantifier")
            self.next()
            self.expect(".")
            body = self.formula()
            return Exists(var.text, body) if tok.text == "exists" else ForAll(var.text, body)
        return self.disj()

    def disj(self) -> Formula:
        parts = [self.conj()]
        while self.peek().text == "|":
            self.next()
            parts.append(self.conj())
        return disj(parts)

    def conj(self) -> Formula:
        parts = [self.impl()]
        while self.peek().text == "&":
            self.next()
            parts.append(self.impl())
        return conj(parts)

    def impl(self) -> Formula:
        left = self.lit()
        tok = self.peek()
        if tok.text == "->":
            self.next()
            return Implies(left, self.lit())
        if tok.text == "<->":
            self.next()
            return Iff(left, self.lit())
        return left

    def lit(self) -> Formula:
        tok = self.peek()
        if tok.text == "~":
            self.next()
            return Not(self.lit())
        if tok.text == "(":
            # Could open a parenthesized term ("(x+1)*y = 0") or a
            # parenthesized formula. An atom goes on after the group with
            # an operator, so only then is the atom reading tried first.
            after = self.after_group.get(self.pos)
            if after is not None and self.tokens[after].text in _AFTER_TERM:
                saved = self.pos
                try:
                    return self.atom()
                except FormulaSyntaxError:
                    self.pos = saved
            self.next()
            inner = self.formula()
            self.expect(")")
            return inner
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if (
            tok.kind == "NAME"
            and tok.text not in _KEYWORDS
            and self.tokens[self.pos + 1].text == "("
        ):
            name = self.next().text
            self.expect("(")
            args = [self.term()]
            while self.peek().text == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            return PredicateApp(name, tuple(args))
        lhs = self.term()
        op = self.peek()
        if op.text == "=":
            self.next()
            return Equal(lhs, self.term())
        if op.text == "!=":
            self.next()
            return Not(Equal(lhs, self.term()))
        self.error("expected '=' or '!=' after term")

    # -- term levels ---------------------------------------------------------

    def term(self) -> Term:
        parts = [self.product()]
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.product()
            parts.append(rhs if op == "+" else -rhs)
        return parts[0] if len(parts) == 1 else Term.sum(parts)

    def product(self) -> Term:
        t = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            rhs = self.factor()
            if op == "*":
                t = t * rhs
            else:
                if not rhs.is_constant or rhs.is_zero:
                    self.error("division only by nonzero integer constants")
                t = t * Term.constant(Fraction(1, 1) / Fraction(rhs.constant_value()))
        return t

    def factor(self) -> Term:
        tok = self.peek()
        if tok.text == "-":
            self.next()
            return -self.factor()
        base = self.base()
        if self.peek().text == "^":
            self.next()
            exp = self.peek()
            if exp.kind != "INT":
                self.error("expected an integer exponent")
            self.next()
            return base ** int(exp.text)
        return base

    def base(self) -> Term:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return Term.constant(int(tok.text))
        if tok.kind == "NAME" and tok.text not in _KEYWORDS:
            self.next()
            return Term.variable(tok.text)
        if tok.text == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        self.error("expected a term")


def parse(text: str) -> Formula:
    parser = _Parser(text)
    return parser.whole(parser.formula())


def parse_term(text: str) -> Term:
    """Parse a bare polynomial term (the grammar's term level only)."""
    parser = _Parser(text)
    return parser.whole(parser.term())


# -- printer -----------------------------------------------------------------

_QUANT, _OR, _AND, _IMPL, _LIT = 0, 1, 2, 3, 4


def _level(f: Formula) -> int:
    if isinstance(f, (Exists, ForAll)):
        return _QUANT
    if isinstance(f, Or):
        return _OR
    if isinstance(f, And):
        return _AND
    if isinstance(f, (Implies, Iff)):
        return _IMPL
    return _LIT


def _wrap(f: Formula, minimum: int) -> str:
    text = print_formula(f)
    return f"({text})" if _level(f) < minimum else text


def print_formula(f: Formula) -> str:
    """Canonical text; parse(print_formula(f)) is structurally f."""
    if isinstance(f, (Exists, ForAll)):
        word = "exists" if isinstance(f, Exists) else "forall"
        body = print_formula(f.body)
        if _QUANT < _level(f.body) < _LIT:
            body = f"({body})"
        return f"{word} {f.var}. {body}"
    if isinstance(f, Or):
        return " | ".join(_wrap(p, _AND) for p in f.parts)
    if isinstance(f, And):
        return " & ".join(_wrap(p, _IMPL) for p in f.parts)
    if isinstance(f, Implies):
        return f"{_wrap(f.lhs, _LIT)} -> {_wrap(f.rhs, _LIT)}"
    if isinstance(f, Iff):
        return f"{_wrap(f.lhs, _LIT)} <-> {_wrap(f.rhs, _LIT)}"
    if isinstance(f, Not):
        if isinstance(f.body, Equal):
            return f"{f.body.lhs} != {f.body.rhs}"
        return f"~{_wrap(f.body, _LIT)}"
    if isinstance(f, Equal):
        return f"{f.lhs} = {f.rhs}"
    if isinstance(f, PredicateApp):
        return f"{f.name}(" + ", ".join(str(a) for a in f.args) + ")"
    raise TypeError(f"not a formula: {f!r}")


# -- structural helpers --------------------------------------------------------


def subformulas(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of f, in source order; none for an atom."""
    if isinstance(f, (Equal, PredicateApp)):
        return ()
    if isinstance(f, (Not, Exists, ForAll)):
        return (f.body,)
    if isinstance(f, (And, Or)):
        return f.parts
    if isinstance(f, (Implies, Iff)):
        return (f.lhs, f.rhs)
    raise TypeError(f"not a formula: {f!r}")


def map_subformulas(f: Formula, fn) -> Formula:
    """f with each immediate subformula g replaced by fn(g); an atom is
    returned as it is."""
    if isinstance(f, (Equal, PredicateApp)):
        return f
    if isinstance(f, Not):
        return Not(fn(f.body))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(map(fn, f.parts)))
    if isinstance(f, (Exists, ForAll)):
        return type(f)(f.var, fn(f.body))
    if isinstance(f, (Implies, Iff)):
        return type(f)(fn(f.lhs), fn(f.rhs))
    raise TypeError(f"not a formula: {f!r}")


def _variables(f: Formula, keep_bound: bool) -> set[str]:
    if isinstance(f, Equal):
        return f.lhs.free_variables() | f.rhs.free_variables()
    if isinstance(f, PredicateApp):
        return set().union(*(a.free_variables() for a in f.args))
    if isinstance(f, (Exists, ForAll)):
        body = _variables(f.body, keep_bound)
        return body | {f.var} if keep_bound else body - {f.var}
    return set().union(*(_variables(g, keep_bound) for g in subformulas(f)))


def free_variables(f: Formula) -> set[str]:
    return _variables(f, keep_bound=False)


def all_variables(f: Formula) -> set[str]:
    """Free and bound variable names together."""
    return _variables(f, keep_bound=True)


def desugar(f: Formula) -> Formula:
    """Rewrite Implies/Iff into ~, &, | (recursively)."""
    if isinstance(f, Implies):
        return Or((Not(desugar(f.lhs)), desugar(f.rhs)))
    if isinstance(f, Iff):
        left, right = desugar(f.lhs), desugar(f.rhs)
        return Or((And((left, right)), And((Not(left), Not(right)))))
    return map_subformulas(f, desugar)


def substitute_terms(f: Formula, mapping: dict[str, Term]) -> Formula:
    """Substitute terms for free variables; quantifiers shadow as usual.

    The caller is responsible for ensuring bound variables do not capture
    substituted names (use fresh bound names when in doubt).
    """
    if isinstance(f, Equal):
        return Equal(f.lhs.substitute(mapping), f.rhs.substitute(mapping))
    if isinstance(f, PredicateApp):
        return PredicateApp(f.name, tuple(a.substitute(mapping) for a in f.args))
    if isinstance(f, (Exists, ForAll)) and f.var in mapping:
        inner = {v: t for v, t in mapping.items() if v != f.var}
        return type(f)(f.var, substitute_terms(f.body, inner))
    return map_subformulas(f, lambda g: substitute_terms(g, mapping))


# -- semantics -----------------------------------------------------------------

Interpretation = dict[str, set]


def _index_table(table: set, K: FieldDescriptor, R) -> set:
    """A predicate table with every element of K replaced by its value in
    the ring R; an entry holding anything else could never match and is
    dropped."""
    out = set()
    for entry in table:
        parts = entry if isinstance(entry, tuple) else (entry,)
        if all(isinstance(a, FieldElement) and a.field == K for a in parts):
            key = tuple(R.index(a) for a in parts)
            out.add(key if isinstance(entry, tuple) else key[0])
    return out


def _quantified(f: Formula) -> bool:
    return isinstance(f, (Exists, ForAll)) or any(map(_quantified, subformulas(f)))


def _truth(f: Formula, K: FieldDescriptor, interp: Interpretation, R):
    """f as a function of an assignment dict of values of the ring R
    (`fields.ring`): terms run compiled on R, and quantifiers range over
    range(q) when R is the integer kernel of K. Over K itself a
    quantifier is an error when reached, which only Q leaves to it."""
    tables = {name: _index_table(table, K, R) for name, table in interp.items()}

    def build(f: Formula):
        if isinstance(f, Equal):
            lhs, rhs = f.lhs.compile(R), f.rhs.compile(R)
            return lambda env: lhs(env) == rhs(env)
        if isinstance(f, PredicateApp):
            name, args = f.name, [a.compile(R) for a in f.args]

            def apply(env):
                if name not in tables:
                    raise EvaluationError(f"predicate {name!r} has no interpretation")
                values = tuple(a(env) for a in args)
                table = tables[name]
                if len(values) == 1:
                    return values[0] in table or values in table
                return values in table

            return apply
        if isinstance(f, Not):
            body = build(f.body)
            return lambda env: not body(env)
        if isinstance(f, And):
            parts = [build(p) for p in f.parts]
            return lambda env: all(p(env) for p in parts)
        if isinstance(f, Or):
            parts = [build(p) for p in f.parts]
            return lambda env: any(p(env) for p in parts)
        if isinstance(f, Implies):
            lhs, rhs = build(f.lhs), build(f.rhs)
            return lambda env: (not lhs(env)) or rhs(env)
        if isinstance(f, Iff):
            lhs, rhs = build(f.lhs), build(f.rhs)
            return lambda env: lhs(env) == rhs(env)
        if isinstance(f, (Exists, ForAll)):
            var, body, found = f.var, build(f.body), isinstance(f, Exists)

            def quantify(env):
                # Exists stops at the first true body, ForAll at the first false
                if not isinstance(R, IntField):
                    raise InfiniteFieldError("quantifier evaluation needs a finite field")
                had, shadowed = var in env, env.get(var)
                try:
                    for a in range(R.q):
                        env[var] = a
                        if body(env) == found:
                            return found
                    return not found
                finally:
                    if had:
                        env[var] = shadowed
                    else:
                        env.pop(var, None)

            return quantify
        raise TypeError(f"not a formula: {f!r}")

    return build(f)


def evaluate(
    f: Formula,
    K: FieldDescriptor,
    assignment: dict[str, FieldElement] | None = None,
    interp: Interpretation | None = None,
) -> bool:
    """Truth value under an assignment; quantifiers range over all of K
    (finite fields only). Predicate symbols are looked up in `interp` as
    sets of elements (unary) or of element tuples. A formula with a
    quantifier runs on the integer kernel of a finite K; a quantifier-free
    one runs on the kernel only when its tables are already built."""
    # a quantifier ranges over all of K, which repays the O(q) tables
    R = ring(K, math.inf if _quantified(f) else 0)
    truth = _truth(f, K, interp or {}, R)
    assignment = assignment or {}
    # only the free variables are read; other entries stay unconverted
    used = free_variables(f).intersection(assignment)
    return truth({v: R.index(assignment[v]) for v in used})


def definable_set(
    f: Formula,
    K: FieldDescriptor,
    free_var: str,
    interp: Interpretation | None = None,
) -> set[FieldElement]:
    """{a in K : f holds at free_var=a}, by brute force over the indices of
    `int_field(K)`; only the members are made FieldElements."""
    fv = free_variables(f)
    if fv != {free_var}:
        raise EvaluationError(
            f"expected exactly one free variable {free_var!r}, found {sorted(fv)}"
        )
    if not K.is_finite:
        raise InfiniteFieldError("definable_set needs a finite field")
    T = int_field(K)
    truth = _truth(f, K, interp or {}, T)
    return {T.element(a) for a in range(T.q) if truth({free_var: a})}
