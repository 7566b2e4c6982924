"""Parser and renderer for the `.bond` model text format.

    model      := item* ;  item := speciesDef | lawDef | affinityDef | mixtureDef
    speciesDef := "species" NAME ("(" LOC ("," LOC)* ")")? "=" spec ";"
    spec       := sum | par | res | "0" | NAME ("(" LOC ("," LOC)* ")")?
    sum        := guard ("+" guard)*
    guard      := SITE ("@" LOC)? ("(" LOC ("," LOC)* ")")? "." cont
    par        := "(" spec ("|" spec)+ ")"
    res        := "new" LOC ("," LOC)* "in" spec
    lawDef     := "law" NAME "(" NAME ("," NAME)* ";" NAME ("," NAME)* ")" "=" expr ";"
    affinityDef:= "affinity" "{" (pattern "at" NAME "(" NUM ("," NUM)* ")" ";")* "}"
    pattern    := cluster ("||" cluster)* ;  cluster := SITE ("&" SITE)*
    mixtureDef := "mixture" "{" NUM NAME ("," NUM NAME)* "}"

"&" joins sites within one cluster (one molecule's contribution), "||"
separates the clusters of different reactants.  "#" starts a line comment.
A guard's continuation is a single atom; parenthesize sums and parallels.

The text is lexed in one regex pass into (kind, text, offset) tokens.  A
ParseError's message starts with the 1-based ``line:col`` of the offending
token, which is worked out from its offset only when the error is raised.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import expr as ex
from .terms import (
    NIL,
    MASS_ACTION,
    AffinityEntry,
    Call,
    KineticLaw,
    Model,
    New,
    Par,
    Prefix,
    Species,
    SpeciesDef,
    Sum,
    make_cluster,
    validate_model,
)

_KEYWORDS = {"species", "law", "affinity", "mixture", "new", "in", "at"}

# each match skips the whitespace and comments before one token
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|\#[^\n]*)*
    (?:
      (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<op>\|\||[(){};,.+\-*/=@&|])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)


class Position(NamedTuple):
    line: int
    col: int


class ParseError(ValueError):
    code = "PARSE"

    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - text.rfind("\n", 0, pos)
        super().__init__(f"{line}:{col}: {message}")
        self.span = Position(line, col)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", text, m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
        if kind == "eof":
            break
    return tokens


class _Parser:
    """Recursive descent over the tokens.  Keywords, operators and the nil
    "0" are matched by their text alone: no other kind of token has it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def tok(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def error(self, message: str, pos: int | None = None) -> ParseError:
        return ParseError(message, self.text, self.tok[2] if pos is None else pos)

    def found(self) -> str:
        return repr(self.tok[1] or "end of input")

    def advance(self) -> str:
        self.i += 1
        return self.tokens[self.i - 1][1]

    def at(self, text: str) -> bool:
        return self.tokens[self.i][1] == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.i][1] == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            raise self.error(f"expected {text!r}, found {self.found()}")

    def sep_list(self, sep: str, item, *args) -> list:
        """``item (sep item)*``: one or more items, each ``item(*args)``."""
        out = [item(*args)]
        while self.accept(sep):
            out.append(item(*args))
        return out

    def name(self, what: str = "identifier") -> str:
        kind, text, _ = self.tok
        if kind != "name" or text in _KEYWORDS:
            raise self.error(f"expected {what}, found {self.found()}")
        self.i += 1
        return text

    def number(self) -> float:
        sign = -1.0 if self.accept("-") else 1.0
        if self.tok[0] != "num":
            raise self.error(f"expected number, found {self.found()}")
        return sign * float(self.advance())

    def amount(self) -> tuple[float, str]:
        """A mixture entry: a finite concentration >= 0 and a species name."""
        pos = self.tok[2]
        c = self.number()
        if not 0.0 <= c < float("inf"):
            raise self.error(f"expected a finite concentration >= 0, found {c:g}", pos)
        return c, self.name("species name")

    def parameter(self) -> float:
        """An affinity entry's law parameter: a finite number."""
        pos = self.tok[2]
        v = self.number()
        if not abs(v) < float("inf"):
            raise self.error(f"expected a finite law parameter, found {v:g}", pos)
        return v

    # --- species terms ---

    def spec(self) -> Species:
        if self.at("(") or self.at("new") or self.at("0"):
            return self.continuation()
        return self.sum_or_call()

    def res(self) -> Species:
        self.expect("new")
        names = self.sep_list(",", self.name, "location")
        self.expect("in")
        return New(tuple(names), self.spec())

    def group(self) -> Species:
        self.expect("(")
        parts = self.sep_list("|", self.spec)
        self.expect(")")
        return Par(tuple(parts)) if len(parts) > 1 else parts[0]

    def sum_or_call(self) -> Species:
        first = self.guard_or_call()
        if isinstance(first, Prefix):
            guards = [first]
            while self.accept("+"):
                start = self.tok[2]
                g = self.guard_or_call()
                if not isinstance(g, Prefix):
                    raise self.error("a choice may only contain prefix guards", start)
                guards.append(g)
            return Sum(tuple(guards))
        return first

    def guard_or_call(self) -> Prefix | Species:
        ident = self.name("site or species name")
        loc = self.name("location") if self.accept("@") else None
        names: list[str] = []
        if self.accept("("):
            names = self.sep_list(",", self.name, "location")
            self.expect(")")
            if len(set(names)) != len(names):
                raise self.error("received locations must be pairwise distinct")
        if self.accept("."):
            return Prefix(ident, loc, tuple(names), self.continuation())
        if loc is not None:
            raise self.error("'@location' is only valid on a prefix guard")
        return Call(ident, tuple(names))

    def continuation(self) -> Species:
        """Guard continuation: an atom; sums/parallels must be parenthesized."""
        if self.accept("0"):
            return NIL
        if self.at("("):
            return self.group()
        if self.at("new"):
            return self.res()
        g = self.guard_or_call()
        if isinstance(g, Prefix):
            return Sum((g,))
        return g

    # --- law expressions ---

    def law_expr(self) -> ex.Expr:
        e = self.law_term()
        while self.at("+") or self.at("-"):
            op = self.advance()
            rhs = self.law_term()
            e = ex.add(e, rhs) if op == "+" else ex.sub(e, rhs)
        return e

    def law_term(self) -> ex.Expr:
        e = self.law_factor()
        while self.at("*") or self.at("/"):
            pos = self.tok[2]
            op = self.advance()
            rhs = self.law_factor()
            try:
                e = ex.mul(e, rhs) if op == "*" else ex.div(e, rhs)
            except ex.DomainError as err:  # a constant x/0
                raise self.error(str(err), pos) from None
        return e

    def law_factor(self) -> ex.Expr:
        if self.accept("-"):
            return ex.sub(ex.ZERO, self.law_factor())
        if self.accept("("):
            e = self.law_expr()
            self.expect(")")
            return e
        if self.tok[0] == "num":
            return ex.const(float(self.advance()))
        return ex.Var(self.name("parameter or argument"))

    # --- affinity patterns ---

    def cluster(self):
        return make_cluster(self.sep_list("&", self.name, "site"))


def parse_model(text: str) -> Model:
    """Parse and validate a complete model."""
    p = _Parser(text)
    species: dict[str, SpeciesDef] = {}
    laws: dict[str, KineticLaw] = {MASS_ACTION.name: MASS_ACTION}
    affinity: list[AffinityEntry] = []
    mixture: list[tuple[float, str]] = []

    while p.tok[0] != "eof":
        start = p.tok[2]
        if p.accept("species"):
            name = p.name("species name")
            params: list[str] = []
            if p.accept("("):
                params = p.sep_list(",", p.name, "location")
                p.expect(")")
            p.expect("=")
            body = p.spec()
            p.expect(";")
            if name in species:
                raise p.error(f"duplicate species definition '{name}'", start)
            species[name] = SpeciesDef(name, tuple(params), body)
        elif p.accept("law"):
            name = p.name("law name")
            p.expect("(")
            params = p.sep_list(",", p.name, "parameter")
            p.expect(";")
            args = p.sep_list(",", p.name, "site argument")
            p.expect(")")
            p.expect("=")
            body = p.law_expr()
            p.expect(";")
            if name in laws:
                raise p.error(f"duplicate law definition '{name}'", start)
            unknown = ex.variables(body) - set(params) - set(args)
            if unknown:
                undeclared = sorted(unknown)[0]
                raise p.error(f"law '{name}' references undeclared name '{undeclared}'", start)
            laws[name] = KineticLaw(name, tuple(params), tuple(args), body)
        elif p.accept("affinity"):
            p.expect("{")
            while not p.at("}"):
                clusters = p.sep_list("||", p.cluster)
                p.expect("at")
                law_name = p.name("law name")
                p.expect("(")
                pos = p.tok[2]
                values = p.sep_list(",", p.parameter)
                if law_name == MASS_ACTION.name and values[0] < 0.0:
                    raise p.error(f"expected a rate constant >= 0, found {values[0]:g}", pos)
                p.expect(")")
                p.expect(";")
                affinity.append(AffinityEntry(tuple(clusters), law_name, tuple(values)))
            p.expect("}")
        elif p.accept("mixture"):
            p.expect("{")
            mixture += p.sep_list(",", p.amount)
            p.expect("}")
        else:
            raise p.error(f"expected a definition, found {p.found()}")

    model = Model(species, laws, tuple(affinity), tuple(mixture))
    validate_model(model)
    return model

