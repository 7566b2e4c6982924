"""Parser and renderer for the `.bond` model text format.

    model      := item* ;  item := speciesDef | lawDef | affinityDef | mixtureDef
    speciesDef := "species" NAME ("(" LOC ("," LOC)* ")")? "=" spec ";"
    spec       := sum | par | res | "0" | call
    sum        := guard ("+" guard)*
    guard      := SITE ("@" LOC)? ("(" LOC ("," LOC)* ")")? "." cont
    cont       := "0" | par | res | guard | call ;  call := NAME ("(" LOC ("," LOC)* ")")?
    par        := "(" spec ("|" spec)+ ")"
    res        := "new" LOC ("," LOC)* "in" spec
    lawDef     := "law" NAME "(" NAME ("," NAME)* ";" NAME ("," NAME)* ")" "=" expr ";"
    affinityDef:= "affinity" "{" (pattern "at" NAME "(" NUM ("," NUM)* ")" ";")* "}"
    pattern    := cluster ("||" cluster)* ;  cluster := SITE ("&" SITE)*
    mixtureDef := "mixture" "{" NUM NAME ("," NUM NAME)* "}"

"&" joins sites within one cluster (one molecule's contribution), "||"
separates the clusters of different reactants.  "#" starts a line comment.
A guard's continuation is a single atom; parenthesize sums and parallels.

The text is lexed by one ``findall``, whose pattern skips whitespace and
comments without capturing them; a token's kind is read from its first
character.  A ParseError's message starts with the 1-based ``line:col`` of
the offending token, whose offset is found by lexing again up to it, only
when the error is raised.  While it builds the species bodies, the parser
gathers their sites, their locations and their calls in text order, and
``parse_model`` checks the model's cross-references on these records before
it builds the ``Model``.
"""

from __future__ import annotations

import math
import re
from itertools import islice

from . import expr as ex
from .terms import (
    NIL,
    MASS_ACTION,
    AffinityEntry,
    Call,
    KineticLaw,
    Model,
    ModelError,
    New,
    Par,
    Prefix,
    Species,
    SpeciesDef,
    Sum,
    check_guarded,
    free_locations,
    make_cluster,
)

_KEYWORDS = {"species", "law", "affinity", "mixture", "new", "in", "at"}

# the whitespace and comments before a token, skipped, then the token: a number,
# a name, an operator, "" at the end of the text or a character that starts none
_TOKEN_RE = re.compile(
    r"(?:\s+|#[^\n]*)*"
    r"(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z0-9_']*|\|\||[(){};,.+\-*/=@&|]|\Z|[^\s#])"
)
# the kind of a token by its first character; a number's, any decimal digit, is not listed
_KIND = {"": "eof", **dict.fromkeys("(){};,.+-*/=@&|", "op")}
_KIND.update(dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "name"))


class ParseError(ValueError):
    code = "PARSE"

    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - text.rfind("\n", 0, pos)
        super().__init__(f"{line}:{col}: {message}")


class _Parser:
    """Recursive descent over the tokens.  Keywords, operators and the nil
    "0" are matched by their text alone: no other kind of token has it.
    Positions are token indices until an error needs an offset."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)  # ends with "" (end of input), once or twice
        self.i = 0
        # for parse_model's checks, from the species bodies as they are built: their
        # sites, their locations, and each call's (name, argument count) in text order
        self.sites, self.locations, self.calls = set(), set(), []
        if bad := {t for t in set(self.tokens) if t[:1] not in _KIND and not t[0].isdecimal()}:
            i = next(i for i, t in enumerate(self.tokens) if t in bad)
            raise self.error(f"unexpected character {self.tokens[i]!r}", i)

    @property
    def tok(self) -> str:
        return self.tokens[self.i]

    def error(self, message: str, pos: int | None = None) -> ParseError:
        """An error at token index ``pos``, by default the current one."""
        token = next(islice(_TOKEN_RE.finditer(self.text), self.i if pos is None else pos, None))
        return ParseError(message, self.text, token.start(1))

    def found(self) -> str:
        return repr(self.tok or "end of input")

    def advance(self) -> str:
        self.i += 1
        return self.tokens[self.i - 1]

    def at(self, text: str) -> bool:
        return self.tokens[self.i] == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.i] == text:
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
        text = self.tokens[self.i]
        if _KIND.get(text[:1]) != "name" or text in _KEYWORDS:
            raise self.error(f"expected {what}, found {self.found()}")
        self.i += 1
        return text

    def number(self, what: str, ok) -> float:
        """A number, negated after a "-"; unless ``ok`` holds for it, an error at its
        first token that expects ``what``."""
        pos = self.i
        sign = -1.0 if self.accept("-") else 1.0
        if not self.tok[:1].isdecimal():
            raise self.error(f"expected number, found {self.found()}")
        v = sign * float(self.advance())
        if not ok(v):
            raise self.error(f"expected {what}, found {v:g}", pos)
        return v

    def amount(self) -> tuple[float, str]:
        """A mixture entry: a finite concentration >= 0 and a species name."""
        c = self.number("a finite concentration >= 0", lambda v: 0.0 <= v < math.inf)
        return c, self.name("species name")

    # --- species terms ---

    def spec(self, cont: bool = False) -> Species:
        """A species term; a guard's continuation (``cont``) stops before a "+"."""
        if self.accept("0"):
            return NIL
        if self.at("("):
            return self.group()
        if self.at("new"):
            return self.res()
        first = self.guard_or_call()
        if not isinstance(first, Prefix):
            return first
        guards = [first]
        while not cont and self.accept("+"):
            start = self.i
            g = self.guard_or_call()
            if not isinstance(g, Prefix):
                raise self.error("a choice may only contain prefix guards", start)
            guards.append(g)
        return Sum(tuple(guards))

    def res(self) -> Species:
        self.expect("new")
        names = self.sep_list(",", self.name, "location")
        self.expect("in")
        self.locations.update(names)
        return New(tuple(names), self.spec())

    def group(self) -> Species:
        self.expect("(")
        parts = self.sep_list("|", self.spec)
        self.expect(")")
        return Par(tuple(parts)) if len(parts) > 1 else parts[0]

    def guard_or_call(self) -> Prefix | Species:
        ident = self.name("site or species name")
        loc = self.name("location") if self.accept("@") else None
        names: list[str] = []
        if self.accept("("):
            names = self.sep_list(",", self.name, "location")
            self.expect(")")
        self.locations.update(names, () if loc is None else (loc,))
        if self.accept("."):
            if len(set(names)) != len(names):
                raise self.error("received locations must be pairwise distinct", self.i - 1)
            self.sites.add(ident)
            return Prefix(ident, loc, tuple(names), self.spec(cont=True))
        if loc is not None:
            raise self.error("'@location' is only valid on a prefix guard")
        self.calls.append((ident, len(names)))
        return Call(ident, tuple(names))

    # --- law expressions ---

    def law_expr(self) -> ex.Expr:
        return self.folds(("+", "-"), lambda: self.folds(("*", "/"), self.law_factor))

    def folds(self, ops: tuple[str, ...], operand) -> ex.Expr:
        """``operand (op operand)*`` for op in ``ops``, folded left to right: a
        constant x/0, or a fold to a non-finite constant, is an error at its operator."""
        e = operand()
        while self.tok in ops:
            pos, op = self.i, self.advance()
            rhs = operand()
            try:
                e = {"+": ex.add, "-": ex.sub, "*": ex.mul, "/": ex.div}[op](e, rhs)
            except ex.DomainError as err:  # a constant x/0
                raise self.error(str(err), pos) from None
            if not ex.finite(e):
                raise self.error(f"folding constants at '{op}' gives a non-finite value", pos)
        return e

    def law_factor(self) -> ex.Expr:
        if self.accept("-"):
            return ex.sub(ex.ZERO, self.law_factor())
        if self.accept("("):
            e = self.law_expr()
            self.expect(")")
            return e
        if self.tok[:1].isdecimal():
            return ex.const(self.number("a finite number", math.isfinite))
        return ex.Var(self.name("parameter or argument"))

    # --- affinity patterns ---

    def cluster(self):
        return make_cluster(self.sep_list("&", self.name, "site"))


def parse_model(text: str) -> Model:
    """Parse and check a complete model."""
    p = _Parser(text)
    species: dict[str, SpeciesDef] = {}
    laws: dict[str, KineticLaw] = {MASS_ACTION.name: MASS_ACTION}
    affinity: list[AffinityEntry] = []
    mixture: list[tuple[float, str]] = []

    while p.tok:  # "" is the end of input
        start = p.i
        if p.accept("species"):
            name = p.name("species name")
            params: list[str] = []
            if p.accept("("):
                params = p.sep_list(",", p.name, "location")
                p.expect(")")
            p.locations.update(params)
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
                pos = p.i
                values = p.sep_list(",", p.number, "a finite law parameter", math.isfinite)
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

    # the model's cross-references and its site/location split, on the records gathered
    # above; the calls come in text order, the order a walk of the bodies meets them
    for name, n in p.calls:
        sd = species.get(name)
        if sd is None:
            raise ModelError(f"unknown species '{name}'")
        if len(sd.params) != n:
            raise ModelError(
                f"species '{name}' takes {len(sd.params)} location(s), got {n}", code="ARITY"
            )
    check_guarded(species)
    if clash := p.sites & p.locations:
        raise ModelError(f"name used as both site and location: {sorted(clash)[0]}")
    warnings = []
    for entry in affinity:
        law = laws.get(entry.law_name)
        if law is None:
            raise ModelError(f"unknown law '{entry.law_name}'")
        if law.variadic:
            if len(entry.law_params) != 1:
                raise ModelError("law 'MA' takes 1 parameter", code="ARITY")
        elif len(entry.law_params) != len(law.params):
            raise ModelError(
                f"law '{law.name}' takes {len(law.params)} parameter(s), "
                f"got {len(entry.law_params)}",
                code="ARITY",
            )
        elif len(law.args) != len(entry.pattern):
            raise ModelError(
                f"law '{law.name}' expects {len(law.args)} cluster(s), pattern "
                f"has {len(entry.pattern)}",
                code="ARITY",
            )
        warnings += (
            f"site '{s}' in affinity pattern never occurs in a species"
            for cluster in entry.pattern
            for s in cluster
            if s not in p.sites
        )
    for _, name in mixture:
        sd = species.get(name)
        if sd is None:
            raise ModelError(f"unknown species '{name}' in mixture")
        if sd.params:
            raise ModelError(
                f"mixture species '{name}' must not take location parameters", code="ARITY"
            )
        if free := free_locations(sd.body):
            raise ModelError(f"mixture species '{name}' has free locations {sorted(free)}")
    return Model(species, laws, tuple(affinity), tuple(mixture), warnings)
