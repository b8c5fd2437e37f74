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
other character, an error. The parser reads token texts alone, from one
`findall` after one `fullmatch`; only a syntax error scans again for its
token's offset, to report its line and column, both from 1, where only
"\n" starts a line.

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
from .terms import Coefficient, Monomial, Term, _canon, _mono_mul

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
_PUNCT = r"<->|->|!=|[()+\-*^=,.|&~/]"
# Each match skips whitespace and takes the first entry that fits; OTHER
# takes any other character, so only trailing whitespace goes unmatched.
_TOKEN_RE = re.compile(
    r"\s*(?:"
    rf"(?P<NAME>{_NAME})"
    r"|(?P<INT>[0-9]+)"
    rf"|(?P<PUNCT>{_PUNCT})"
    r"|(?P<OTHER>\S))"
)
# The same table without OTHER; a name or integer ends where the scan ends
# it, so a text splits one way only and a bad one fails without backtracking.
_TOKEN = rf"{_NAME}(?![A-Za-z0-9_])|[0-9]+(?![0-9])|{_PUNCT}"
_TEXT_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*")
_TOKENS_RE = re.compile(rf"\s*({_TOKEN})")
# the tokens that can follow a parenthesized term inside an atom
_AFTER_TERM = frozenset(("^", "*", "/", "+", "-", "=", "!="))


def is_name(text: str) -> bool:
    """Whether text reads as one variable or predicate name."""
    # compiled on first use, through re's cache: only schemas ask
    return re.fullmatch(_NAME, text) is not None and text not in _KEYWORDS


def _position(text: str, pos: int) -> tuple[int, int]:
    """Line and column, both from 1, of offset pos in text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Each token of text as (kind, text, offset), then END; any other character is an error."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "OTHER":
            raise FormulaSyntaxError(
                f"unexpected character {m.group(kind)!r}", *_position(text, m.start(kind))
            )
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    """Reads token texts, "" at the end: a name is an identifier, an
    integer is digits."""

    def __init__(self, text: str):
        if _TEXT_RE.fullmatch(text) is None:
            _tokenize(text)  # raises at the first character no token starts
        self.text = text
        self.tokens = _TOKENS_RE.findall(text) + [""]
        self.pos = 0
        # position of each "(" -> position just after its matching ")"
        self.after_group: dict[int, int] = {}
        opened = []
        for pos, tok in enumerate(self.tokens):
            if tok == "(":
                opened.append(pos)
            elif tok == ")" and opened:
                self.after_group[opened.pop()] = pos + 1

    def expect(self, text: str):
        tok = self.tokens[self.pos]
        if tok != text:
            self.error(f"expected {text!r}, found {tok or 'end of input'!r}")
        self.pos += 1

    def error(self, message: str):
        offset = _tokenize(self.text)[self.pos][2]
        raise FormulaSyntaxError(message, *_position(self.text, offset))

    def whole(self, result):
        """result, once the input is read to its end."""
        tok = self.tokens[self.pos]
        if tok:
            self.error(f"unexpected trailing input {tok!r}")
        return result

    # -- formula levels ----------------------------------------------------

    def formula(self) -> Formula:
        tok = self.tokens[self.pos]
        if tok in _KEYWORDS:
            self.pos += 1
            var = self.tokens[self.pos]
            if not var.isidentifier() or var in _KEYWORDS:
                self.error("expected a variable name after quantifier")
            self.pos += 1
            self.expect(".")
            body = self.formula()
            return Exists(var, body) if tok == "exists" else ForAll(var, body)
        return self.disj()

    def disj(self) -> Formula:
        parts = [self.conj()]
        while self.tokens[self.pos] == "|":
            self.pos += 1
            parts.append(self.conj())
        return disj(parts)

    def conj(self) -> Formula:
        parts = [self.impl()]
        while self.tokens[self.pos] == "&":
            self.pos += 1
            parts.append(self.impl())
        return conj(parts)

    def impl(self) -> Formula:
        left = self.lit()
        tok = self.tokens[self.pos]
        if tok == "->":
            self.pos += 1
            return Implies(left, self.lit())
        if tok == "<->":
            self.pos += 1
            return Iff(left, self.lit())
        return left

    def lit(self) -> Formula:
        tok = self.tokens[self.pos]
        if tok == "~":
            self.pos += 1
            return Not(self.lit())
        if tok == "(":
            # Could open a parenthesized term ("(x+1)*y = 0") or a
            # parenthesized formula. An atom goes on after the group with
            # an operator, so only then is the atom reading tried first.
            after = self.after_group.get(self.pos)
            if after is not None and self.tokens[after] in _AFTER_TERM:
                saved = self.pos
                try:
                    return self.atom()
                except FormulaSyntaxError:
                    self.pos = saved
            self.pos += 1
            inner = self.formula()
            self.expect(")")
            return inner
        return self.atom()

    def atom(self) -> Formula:
        tok = self.tokens[self.pos]
        if tok.isidentifier() and tok not in _KEYWORDS and self.tokens[self.pos + 1] == "(":
            self.pos += 2
            args = [self.term()]
            while self.tokens[self.pos] == ",":
                self.pos += 1
                args.append(self.term())
            self.expect(")")
            return PredicateApp(tok, tuple(args))
        lhs = self.term()
        op = self.tokens[self.pos]
        if op == "=":
            self.pos += 1
            return Equal(lhs, self.term())
        if op == "!=":
            self.pos += 1
            return Not(Equal(lhs, self.term()))
        self.error("expected '=' or '!=' after term")

    # -- term levels ---------------------------------------------------------

    def term(self) -> Term:
        """A sum of products, added up in one {monomial: coefficient} dict
        and put in canonical order once."""
        acc: dict[Monomial, Coefficient] = {}
        self.product(acc, 1)
        while (op := self.tokens[self.pos]) == "+" or op == "-":
            self.pos += 1
            self.product(acc, 1 if op == "+" else -1)
        return Term(_canon(acc))

    def product(self, acc: dict, c: Coefficient):
        """Add c times the next product into acc. Its factors multiply into
        one coefficient and one exponent dict; only a parenthesized group is
        multiplied out, as a Term."""
        exps: dict[str, int] = {}
        poly = None
        op = "*"
        while True:
            into = exps if op == "*" else {}
            f = self.factor(into)
            if op == "/":
                if type(f) is Term:
                    f = f.constant_value() if f.is_constant else 0
                if into or not f:
                    self.error("division only by nonzero integer constants")
                f = Fraction(1) / f
            if type(f) is Term:
                poly = f if poly is None else poly * f
            else:
                c *= f
            op = self.tokens[self.pos]
            if op != "*" and op != "/":
                break
            self.pos += 1
        m = tuple(sorted(exps.items()))
        for pm, pc in ((((), 1),) if poly is None else poly.coeffs):
            pm = _mono_mul(pm, m)
            acc[pm] = acc.get(pm, 0) + pc * c

    def factor(self, exps: dict):
        """The next factor: an integer, a parenthesized group as a Term, or
        1 for a name, whose exponent is added into exps."""
        tok = self.tokens[self.pos]
        if tok == "-":
            self.pos += 1
            return -self.factor(exps)
        self.pos += 1
        if tok.isdigit():
            c = int(tok)
        elif tok == "(":
            c = self.term()
            self.expect(")")
        elif tok.isidentifier() and tok not in _KEYWORDS:
            c = 1
        else:
            self.pos -= 1
            self.error("expected a term")
        n = 1
        if self.tokens[self.pos] == "^":
            self.pos += 1
            if not self.tokens[self.pos].isdigit():
                self.error("expected an integer exponent")
            n = int(self.tokens[self.pos])
            self.pos += 1
        if not tok.isidentifier():
            return c if n == 1 else c**n
        if n:
            exps[tok] = exps.get(tok, 0) + n
        return 1


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


def _variables(f: Formula) -> tuple[set[str], set[str]]:
    """The free variables of f and all of them, bound ones too, in one walk."""
    if isinstance(f, (Equal, PredicateApp)):
        terms = (f.lhs, f.rhs) if isinstance(f, Equal) else f.args
        free = set().union(*(t.free_variables() for t in terms))
        return free, set(free)
    free, every = set(), set()
    for g in subformulas(f):
        g_free, g_every = _variables(g)
        free |= g_free
        every |= g_every
    if isinstance(f, (Exists, ForAll)):
        free.discard(f.var)
        every.add(f.var)
    return free, every


def free_variables(f: Formula) -> set[str]:
    return _variables(f)[0]


def all_variables(f: Formula) -> set[str]:
    """Free and bound variable names together."""
    return _variables(f)[1]


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
