import ast
import re
import time
from pathlib import Path

import pytest

from bondc import expr as ex
from bondc.congruence import normalize, serialize
from bondc.parser import _KIND, ParseError, _Parser, parse_model
from bondc.terms import AMBIENT, NIL, Call, Model, ModelError, New, Par, Prefix, Sum

from conftest import evaluate, family_source

MODELS = Path(__file__).resolve().parent.parent / "models"


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
        lines.append(f"law {law.name}({', '.join(law.params)}; {', '.join(law.args)}) = {body};")
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


def parse_species(src: str, extra: str = ""):
    m = parse_model(f"species X = {src};\n{extra}")
    return m.species["X"].body


def test_single_prefix():
    t = parse_species("p.0")
    assert t == Sum((Prefix("p", AMBIENT, (), NIL),))


def test_reception_and_choice():
    t = parse_species("s(l).(s'@l.X + p'@l.P)", extra="species P = p.0;")
    (g,) = t.guards
    assert g.site == "s" and g.receives == ("l",)
    inner = g.body
    assert isinstance(inner, Sum) and len(inner.guards) == 2
    assert inner.guards[0] == Prefix("s'", "l", (), Call("X", ()))
    assert inner.guards[1] == Prefix("p'", "l", (), Call("P", ()))


def test_parallel_and_restriction():
    t = parse_species("new l in (a@l.0 | b@l.0)")
    assert isinstance(t, New) and t.binders == ("l",)
    assert isinstance(t.body, Par) and len(t.body.parts) == 2


def test_multi_receive_and_args():
    m = parse_model(
        "species D(l, m) = a'@l.0 + b'@m.0;\n"
        "species A = a(l, m).D(l, m);\n"
    )
    (g,) = m.species["A"].body.guards
    assert g.receives == ("l", "m")
    assert g.body == Call("D", ("l", "m"))


def test_number_forms():
    m = parse_model(
        "species X = x.0;\naffinity { x at MA(2.5e-3); }\nmixture { 1e2 X }"
    )
    assert m.affinity[0].law_params == (2.5e-3,)
    assert m.mixture[0][0] == 100.0


def test_comments_and_whitespace():
    m = parse_model("# header\nspecies X = x.0;  # trailing\n\n# done\n")
    assert "X" in m.species


def test_law_definition_expression():
    m = parse_model(
        "species X = x.0;\n"
        "law F(k, km; x) = k * x / (km + x) - 1;\n"
        "affinity { x at F(2, 3); }\n"
    )
    law = m.laws["F"]
    v = evaluate(law.apply((2.0, 3.0), [ex.const(6.0)]), {})
    assert v == pytest.approx(2 * 6 / 9 - 1)


def test_pattern_clusters_keep_written_order():
    m = parse_model(
        "species X = s.0;\nspecies Y = e.0;\n"
        "law F(k; x, y) = k * x / y;\n"
        "affinity { s || e at F(1); }\n"
    )
    assert m.affinity[0].pattern == (("s",), ("e",))


def test_cluster_is_sorted_bag():
    m = parse_model("species X = b.0 + a.0;\naffinity { b & a at MA(1); }\n")
    assert m.affinity[0].pattern == (("a", "b"),)


@pytest.mark.parametrize(
    "src,fragment",
    [
        ("species X = ;", "expected"),
        ("species X = x.0", "';'"),
        ("species X = x@.0;", "location"),
        ("species X = (x.0 | );", "expected"),
        ("species X = x.0; species X = y.0;", "duplicate"),
        ("species X = x.0;\naffinity { s at MM(1); }", "unknown law"),
        ("species X = Y;", "unknown species"),
        ("law F(k; x) = k * zz;\nspecies X = x.0;", "zz"),
        ("species X = x(l, l).0;", "distinct"),
    ],
)
def test_parse_errors(src, fragment):
    with pytest.raises((ParseError, ModelError)) as ei:
        parse_model(src)
    assert fragment.lower() in str(ei.value).lower()


@pytest.mark.parametrize(
    "src,message",
    [
        pytest.param(
            "# header\nspecies X = x.0;  # comment\nspecies Y = y.$;\n",
            "3:15: unexpected character '$'",
            id="bad-char-after-comment",
        ),
        pytest.param("species X = ; $", "1:15: unexpected character '$'", id="bad-char-first"),
        pytest.param(
            "species X = x.0", "1:16: expected ';', found 'end of input'", id="eof"
        ),
        pytest.param(
            "species X = x.0\n", "2:1: expected ';', found 'end of input'", id="eof-newline"
        ),
        pytest.param(
            "species X = x.0;\nlaw F(k; x) = k *",
            "2:18: expected parameter or argument, found 'end of input'",
            id="eof-in-law",
        ),
        pytest.param("species X =\n\tx@.0;", "2:4: expected location, found '.'", id="tab"),
        pytest.param(
            "\tspecies X = x.0;\n\t\tspecies Y = ;",
            "2:15: expected site or species name, found ';'",
            id="tabs",
        ),
        pytest.param(
            "species X = x.0;\r\nspecies Y = (y.0 | );\r\n",
            "2:20: expected site or species name, found ')'",
            id="crlf",
        ),
        pytest.param(
            "species X = x.0;\r\n\r\nmixture { 1 }\r\n",
            "3:13: expected species name, found '}'",
            id="crlf-blank-line",
        ),
        pytest.param(
            "species X = x(l, l).0;",
            "1:20: received locations must be pairwise distinct",
            id="distinct-receives",
        ),
        pytest.param(
            "species X = x.0;\n  species X = y.0;",
            "2:3: duplicate species definition 'X'",
            id="duplicate-species",
        ),
        pytest.param(
            "species X = x.0;\nlaw F(k; x) = k;\nlaw F(k; x) = x;",
            "3:1: duplicate law definition 'F'",
            id="duplicate-law",
        ),
        pytest.param(
            "law F(k; x) = k * zz;\nspecies X = x.0;",
            "1:1: law 'F' references undeclared name 'zz'",
            id="undeclared",
        ),
        pytest.param(
            "species X = x.0 + Y;\nspecies Y = y.0;",
            "1:19: a choice may only contain prefix guards",
            id="choice-of-call",
        ),
        pytest.param(
            "species X = Y@l;\nspecies Y = y.0;",
            "1:16: '@location' is only valid on a prefix guard",
            id="located-call",
        ),
        pytest.param(
            "species X = x.0;\nfoo", "2:1: expected a definition, found 'foo'", id="item"
        ),
        pytest.param(
            "species X = x.0;\naffinity { x at MA(1) }",
            "2:23: expected ';', found '}'",
            id="affinity-semicolon",
        ),
        pytest.param(
            "species X = x.0;\naffinity { x at MA(-); }",
            "2:21: expected number, found ')'",
            id="number",
        ),
        pytest.param("species new = x.0;", "1:9: expected species name, found 'new'", id="keyword"),
        pytest.param(
            "species X = x.0;\nlaw F(k; x) = k * x + 1 / 0;",
            "2:25: constant division by zero",
            id="constant-division",
        ),
        pytest.param(
            "species X = x.0;\nlaw F(k; a) = 1e999 * a;",
            "2:15: expected a finite number, found inf",
            id="infinite-literal",
        ),
        pytest.param(
            "species X = x.0;\nlaw F(k; a) = k * 1e200 * 1e200 * a;",
            "2:25: folding constants at '*' gives a non-finite value",
            id="non-finite-product",
        ),
        pytest.param(
            "species X = x.0;\nlaw F(k; a) = (1e308 + 1e308) * a;",
            "2:22: folding constants at '+' gives a non-finite value",
            id="non-finite-sum",
        ),
        pytest.param(
            "species X = x.0;\nmixture { 1 X, - 2 X }",
            "2:16: expected a finite concentration >= 0, found -2",
            id="negative-concentration",
        ),
        pytest.param(
            "species X = x.0;\nmixture { 1e400 X }",
            "2:11: expected a finite concentration >= 0, found inf",
            id="infinite-concentration",
        ),
        pytest.param(
            "species X = x.0;\naffinity { x at MA(- 1); }",
            "2:20: expected a rate constant >= 0, found -1",
            id="negative-rate-constant",
        ),
        pytest.param(
            "species X = x.0;\nlaw F(k, j; x) = k * x;\naffinity { x at F(1, -1e400); }",
            "3:22: expected a finite law parameter, found -inf",
            id="infinite-law-parameter",
        ),
    ],
)
def test_parse_error_message(src, message):
    with pytest.raises(ParseError) as ei:
        parse_model(src)
    assert str(ei.value) == message


def test_parse_error_has_span():
    with pytest.raises(ParseError) as ei:
        parse_model("species X =\n  x@.0;")
    assert str(ei.value).startswith("2:")


def test_arity_mismatch_is_arity_error():
    with pytest.raises(ModelError) as ei:
        parse_model((MODELS / "broken_arity.bond").read_text())
    assert ei.value.code == "ARITY"


def test_law_param_count_checked():
    with pytest.raises(ModelError):
        parse_model(
            "species X = x.0;\nlaw F(k; x) = k * x;\naffinity { x at F(1, 2); }\n"
        )


def test_law_pattern_arity_checked():
    with pytest.raises(ModelError):
        parse_model(
            "species X = x.0;\nspecies Y = y.0;\n"
            "law F(k; x) = k * x;\naffinity { x || y at F(1); }\n"
        )


def test_prime_in_identifier():
    t = parse_species("a'.0")
    assert t.guards[0].site == "a'"


def test_dot_zero_after_name():
    # "p.0" must lex as name, dot, zero -- not as a float "p.0"
    t = parse_species("p.0")
    assert t.guards[0].body is NIL or t.guards[0].body == NIL


@pytest.mark.parametrize(
    "path",
    sorted(p for p in MODELS.glob("*.bond") if p.name != "broken_arity.bond"),
    ids=lambda p: p.stem,
)
def test_corpus_roundtrip(path):
    m1 = parse_model(path.read_text())
    m2 = parse_model(render_model(m1))
    assert m1 == m2


def test_render_species_roundtrip_structural():
    src = "new l in (a@l(m).D(m) | b@l.0 + c.(x.0 | y.0))"
    extra = "species D(m) = d@m.0;"
    t = parse_species(src, extra=extra)
    again = parse_species(serialize(t), extra=extra)
    assert normalize(t) == normalize(again)


def test_render_nil_species():
    m = parse_model("species X = 0;")
    assert "species X = 0;" in render_model(m)


def test_mixture_requires_defined_nullary_species():
    with pytest.raises(ModelError):
        parse_model("species X(l) = a@l.0;\nmixture { 1 X }")
    with pytest.raises(ModelError):
        parse_model("species X = x.0;\nmixture { 1 Y }")


def test_warning_for_pattern_site_not_in_species():
    m = parse_model("species X = x.0;\naffinity { zz at MA(1); }\n")
    assert any("zz" in w for w in m.warnings)


# --- the lexer against the finditer lexer it replaced -------------------------

# each match skips the whitespace and comments before one token
_REFERENCE_RE = re.compile(
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


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token up to and including the end of input."""
    tokens = []
    for m in _REFERENCE_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", text, m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
        if kind == "eof":
            break
    return tokens


def lexer_sources():
    """Every corpus model, family member with k <= 8 and string in this file."""
    yield from (path.read_text() for path in sorted(MODELS.glob("*.bond")))
    yield from (family_source(f, k) for f in ("scaffold", "witness", "bank") for k in range(1, 9))
    tree = ast.parse(Path(__file__).read_text())
    constants = (n.value for n in ast.walk(tree) if isinstance(n, ast.Constant))
    yield from (c for c in constants if isinstance(c, str))
    yield "species X = x.0;  # a trailing comment, no final newline"
    yield "species X = x.0;\n# comment one\n   # comment two"


def test_lexer_matches_reference():
    sources = list(lexer_sources())
    assert len(sources) > 150
    for text in sources:
        try:
            ref = reference_tokenize(text)
        except ParseError as err:
            with pytest.raises(ParseError) as ei:
                _Parser(text)
            assert str(ei.value) == str(err), text
            continue
        p = _Parser(text)
        assert p.tokens[: len(ref)] == [tok for _, tok, _ in ref], text
        assert not any(p.tokens[len(ref) :]), text  # at most one more end of input
        for i, (kind, tok, offset) in enumerate(ref):
            assert _KIND.get(tok[:1], "num") == kind, tok  # a kind is read from its first character
            assert (kind == "num") == tok[:1].isdecimal(), tok
            # a raised error's line:col is the reference offset's
            assert str(p.error("x", i)) == str(ParseError("x", text, offset)), (text, i)


def test_bad_character_after_long_input():
    # the lexer is linear: it does not backtrack over skipped text or a long name
    cases = [
        (" " * 100_000 + "$", "1:100001: unexpected character '$'"),
        ("a" * 100_000 + "$", "1:100001: unexpected character '$'"),
        ("# a comment\n" * 10_000 + "$", "10001:1: unexpected character '$'"),
    ]
    start = time.perf_counter()
    for text, message in cases:
        with pytest.raises(ParseError) as ei:
            parse_model(text)
        assert str(ei.value) == message
    assert time.perf_counter() - start < 2.0


# --- the first of several faults ---------------------------------------------

# each model has two faults; the one reported, and its text, were recorded
# when validation still walked every species body after parsing
TWO_FAULTS = [
    pytest.param(
        'species A = a.X;\nspecies B = b.A(l);\nmixture { 1 A }',
        'PARSE',
        "unknown species 'X'",
        id='unknown species, then an arity mismatch',
    ),
    pytest.param(
        'species B(l) = b.B;\nspecies A = a.X;\nmixture { 1 A }',
        'ARITY',
        "species 'B' takes 1 location(s), got 0",
        id='an arity mismatch, then an unknown species',
    ),
    pytest.param(
        'species A = a.(b.X | Y(l)) + c.A(m);\nspecies Y = y.0;',
        'PARSE',
        "unknown species 'X'",
        id='two faults in one body, the nested one first',
    ),
    pytest.param(
        'species A = a.(new l in Y(l)) + b.Z;\nspecies Y = y.0;',
        'ARITY',
        "species 'Y' takes 0 location(s), got 1",
        id="a later guard's fault after an earlier guard's",
    ),
    pytest.param(
        'species A = s@s.0;\nspecies B = b.Q;',
        'PARSE',
        "unknown species 'Q'",
        id='a call fault before a clash',
    ),
    pytest.param(
        'species A = (B | s@s.0);\nspecies B = (new l in A);',
        'UNBOUNDED',
        "species 'A' recurses without a guard: A -> B -> A",
        id='an unguarded cycle before a clash',
    ),
    pytest.param(
        'species A(s) = s@s.0;\naffinity { s at Nope(1.0); }',
        'PARSE',
        'name used as both site and location: s',
        id='a clash before an unknown law',
    ),
    pytest.param(
        'species A = a.0;\naffinity { a at Nope(1.0); a at MA(1.0, 2.0); }',
        'PARSE',
        "unknown law 'Nope'",
        id='an unknown law before a parameter count',
    ),
    pytest.param(
        'species A = a.0;\nlaw F(k; x) = k * x;\naffinity { a at F(1.0, 2.0); }\nmixture { 1 Q }',
        'ARITY',
        "law 'F' takes 1 parameter(s), got 2",
        id='a parameter count before an unknown mixture species',
    ),
    pytest.param(
        'law F(k; x) = k * x;\nspecies A = a.0;\naffinity { a at MA(1.0, 2.0); a || a at F(1.0); }',
        'ARITY',
        "law 'MA' takes 1 parameter",
        id="MA's parameter count before a cluster count",
    ),
    pytest.param(
        'law F(k; x) = k * x;\nspecies A = a.0;\naffinity { a || a at F(1.0); }\nmixture { 1 Q }',
        'ARITY',
        "law 'F' expects 1 cluster(s), pattern has 2",
        id='a cluster count before a mixture fault',
    ),
    pytest.param(
        'species A(l) = a@l.0;\nmixture { 1 Q, 1 A }',
        'PARSE',
        "unknown species 'Q' in mixture",
        id='unknown mixture species before a parameterized one',
    ),
    pytest.param(
        'species A(l) = a@l.0;\nmixture { 1 A, 1 Q }',
        'ARITY',
        "mixture species 'A' must not take location parameters",
        id='a parameterized mixture species before an unknown one',
    ),
    pytest.param(
        'species A = a@l.0;\nmixture { 1 A, 1 Q }',
        'PARSE',
        "mixture species 'A' has free locations ['l']",
        id='free locations before an unknown mixture species',
    ),
    pytest.param(
        'species A = a@l.B(l);\nspecies B = b.0;\nmixture { 1 A }',
        'ARITY',
        "species 'B' takes 0 location(s), got 1",
        id="an arity mismatch in the mixture's species, then its free locations",
    ),
]


@pytest.mark.parametrize("src, code, message", TWO_FAULTS)
def test_first_of_two_faults_is_reported(src, code, message):
    with pytest.raises(ModelError) as ei:
        parse_model(src)
    assert (ei.value.code, str(ei.value)) == (code, message)
