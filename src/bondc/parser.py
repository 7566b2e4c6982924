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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import expr as ex
from .congruence import serialize
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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op>\|\||[(){};,.+\-*/=@&|])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    col: int


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "name" | "op" | "eof"
    text: str
    span: SourceSpan


class ParseError(ValueError):
    code = "PARSE"

    def __init__(self, message: str, span: SourceSpan, expected: frozenset[str] = frozenset()):
        super().__init__(f"{span.line}:{span.col}: {message}")
        self.message = message
        self.span = span
        self.expected = expected


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = SourceSpan(pos, pos + 1, line, pos - line_start + 1)
            raise ParseError(f"unexpected character {text[pos]!r}", span)
        end = m.end()
        if m.lastgroup != "ws":
            span = SourceSpan(pos, end, line, pos - line_start + 1)
            tokens.append(Token(m.lastgroup, m.group(), span))
        line += text.count("\n", pos, end)
        nl = text.rfind("\n", pos, end)
        if nl != -1:
            line_start = nl + 1
        pos = end
    tokens.append(Token("eof", "", SourceSpan(pos, pos, line, pos - line_start + 1)))
    return tokens


@dataclass
class _Parser:
    tokens: list[Token]
    i: int = 0

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        t = self.tok
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.tok
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        if self.at(kind, text):
            return self.advance()
        want = text if text is not None else kind
        raise ParseError(
            f"expected {want!r}, found {self.tok.text or 'end of input'!r}",
            self.tok.span,
            frozenset({want}),
        )

    def name(self, what: str = "identifier") -> str:
        t = self.tok
        if t.kind != "name" or t.text in _KEYWORDS:
            raise ParseError(f"expected {what}, found {t.text or 'end of input'!r}", t.span)
        self.advance()
        return t.text

    def number(self) -> float:
        sign = -1.0 if self.accept("op", "-") else 1.0
        t = self.tok
        if t.kind != "num":
            raise ParseError(f"expected number, found {t.text or 'end of input'!r}", t.span)
        self.advance()
        return sign * float(t.text)

    # --- species terms ---

    def spec(self) -> Species:
        if self.at("num", "0"):
            self.advance()
            return NIL
        if self.at("name", "new"):
            return self.res()
        if self.at("op", "("):
            return self.group()
        return self.sum_or_call()

    def res(self) -> Species:
        self.expect("name", "new")
        names = [self.name("location")]
        while self.accept("op", ","):
            names.append(self.name("location"))
        self.expect("name", "in")
        return New(tuple(names), self.spec())

    def group(self) -> Species:
        self.expect("op", "(")
        first = self.spec()
        if self.at("op", "|"):
            parts = [first]
            while self.accept("op", "|"):
                parts.append(self.spec())
            self.expect("op", ")")
            return Par(tuple(parts))
        self.expect("op", ")")
        return first

    def sum_or_call(self) -> Species:
        first = self.guard_or_call()
        if isinstance(first, Prefix):
            guards = [first]
            while self.accept("op", "+"):
                start = self.tok.span
                g = self.guard_or_call()
                if not isinstance(g, Prefix):
                    raise ParseError("a choice may only contain prefix guards", start)
                guards.append(g)
            return Sum(tuple(guards))
        return first

    def guard_or_call(self) -> Prefix | Species:
        ident = self.name("site or species name")
        loc = None
        if self.accept("op", "@"):
            loc = self.name("location")
        names: list[str] = []
        if self.at("op", "("):
            self.advance()
            names.append(self.name("location"))
            while self.accept("op", ","):
                names.append(self.name("location"))
            self.expect("op", ")")
            if len(set(names)) != len(names):
                raise ParseError("received locations must be pairwise distinct", self.tok.span)
        if self.accept("op", "."):
            return Prefix(ident, loc, tuple(names), self.continuation())
        if loc is not None:
            raise ParseError("'@location' is only valid on a prefix guard", self.tok.span)
        return Call(ident, tuple(names))

    def continuation(self) -> Species:
        """Guard continuation: an atom; sums/parallels must be parenthesized."""
        if self.at("num", "0"):
            self.advance()
            return NIL
        if self.at("op", "("):
            return self.group()
        if self.at("name", "new"):
            return self.res()
        g = self.guard_or_call()
        if isinstance(g, Prefix):
            return Sum((g,))
        return g

    # --- law expressions ---

    def law_expr(self) -> ex.Expr:
        e = self.law_term()
        while self.at("op", "+") or self.at("op", "-"):
            op = self.advance().text
            rhs = self.law_term()
            e = ex.add(e, rhs) if op == "+" else ex.sub(e, rhs)
        return e

    def law_term(self) -> ex.Expr:
        e = self.law_factor()
        while self.at("op", "*") or self.at("op", "/"):
            op = self.advance().text
            rhs = self.law_factor()
            e = ex.mul(e, rhs) if op == "*" else ex.div(e, rhs)
        return e

    def law_factor(self) -> ex.Expr:
        if self.accept("op", "-"):
            return ex.sub(ex.ZERO, self.law_factor())
        if self.accept("op", "("):
            e = self.law_expr()
            self.expect("op", ")")
            return e
        if self.tok.kind == "num":
            return ex.const(float(self.advance().text))
        return ex.Var(self.name("parameter or argument"))


def parse_model(text: str) -> Model:
    """Parse and validate a complete model."""
    p = _Parser(_tokenize(text))
    species: dict[str, SpeciesDef] = {}
    laws: dict[str, KineticLaw] = {MASS_ACTION.name: MASS_ACTION}
    affinity: list[AffinityEntry] = []
    mixture: list[tuple[float, str]] = []

    def duplicate(kind: str, name: str, span: SourceSpan) -> ParseError:
        return ParseError(f"duplicate {kind} definition '{name}'", span)

    while not p.at("eof"):
        span = p.tok.span
        if p.accept("name", "species"):
            name = p.name("species name")
            params: list[str] = []
            if p.accept("op", "("):
                params.append(p.name("location"))
                while p.accept("op", ","):
                    params.append(p.name("location"))
                p.expect("op", ")")
            p.expect("op", "=")
            body = p.spec()
            p.expect("op", ";")
            if name in species:
                raise duplicate("species", name, span)
            species[name] = SpeciesDef(name, tuple(params), body)
        elif p.accept("name", "law"):
            name = p.name("law name")
            p.expect("op", "(")
            params = [p.name("parameter")]
            while p.accept("op", ","):
                params.append(p.name("parameter"))
            p.expect("op", ";")
            args = [p.name("site argument")]
            while p.accept("op", ","):
                args.append(p.name("site argument"))
            p.expect("op", ")")
            p.expect("op", "=")
            body = p.law_expr()
            p.expect("op", ";")
            if name in laws:
                raise duplicate("law", name, span)
            unknown = ex.variables(body) - set(params) - set(args)
            if unknown:
                raise ParseError(
                    f"law '{name}' references undeclared name '{sorted(unknown)[0]}'", span
                )
            laws[name] = KineticLaw(name, tuple(params), tuple(args), body)
        elif p.accept("name", "affinity"):
            p.expect("op", "{")
            while not p.at("op", "}"):
                clusters = [_parse_cluster(p)]
                while p.accept("op", "||"):
                    clusters.append(_parse_cluster(p))
                p.expect("name", "at")
                law_name = p.name("law name")
                p.expect("op", "(")
                values = [p.number()]
                while p.accept("op", ","):
                    values.append(p.number())
                p.expect("op", ")")
                p.expect("op", ";")
                affinity.append(
                    AffinityEntry(tuple(clusters), law_name, tuple(values))
                )
            p.expect("op", "}")
        elif p.accept("name", "mixture"):
            p.expect("op", "{")
            mixture.append((p.number(), p.name("species name")))
            while p.accept("op", ","):
                mixture.append((p.number(), p.name("species name")))
            p.expect("op", "}")
        else:
            raise ParseError(
                f"expected a definition, found {p.tok.text or 'end of input'!r}",
                span,
                frozenset({"species", "law", "affinity", "mixture"}),
            )

    model = Model(species, laws, tuple(affinity), tuple(mixture))
    validate_model(model)
    return model


def _parse_cluster(p: _Parser):
    sites = [p.name("site")]
    while p.accept("op", "&"):
        sites.append(p.name("site"))
    return make_cluster(sites)


# --- rendering ---------------------------------------------------------------

def render_model(m: Model) -> str:
    """Inverse of parse_model up to structural equality."""
    lines: list[str] = []
    for sd in m.species.values():
        params = f"({','.join(sd.params)})" if sd.params else ""
        lines.append(f"species {sd.name}{params} = {serialize(sd.body)};")
    for law in m.laws.values():
        if law.variadic:
            continue  # builtin
        body = ex.render(law.body)
        lines.append(
            f"law {law.name}({', '.join(law.params)}; {', '.join(law.args)}) = {body};"
        )
    if m.affinity:
        lines.append("affinity {")
        for entry in m.affinity:
            pat = " || ".join(" & ".join(c) for c in entry.pattern)
            params = ", ".join(ex._fmt_num(v) for v in entry.law_params)
            lines.append(f"  {pat} at {entry.law_name}({params});")
        lines.append("}")
    if m.mixture:
        body = ", ".join(f"{ex._fmt_num(c)} {n}" for c, n in m.mixture)
        lines.append(f"mixture {{ {body} }}")
    return "\n".join(lines) + "\n"
