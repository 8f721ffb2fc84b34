"""Differential lexer tests: the master-pattern scanner against the
construct-at-a-time reference tokenizer.

``tests/reference_tokenizer.py`` keeps the tokenizer the library used
before :mod:`repro.xmlio.tokenizer` became one compiled pattern with
lazy line numbers.  For every input — valid documents from
:mod:`repro.workloads` and grammar-aware mutants of them — both must
produce the same ``(kind, value, attributes, line)`` stream, and either
both finish or both raise an :class:`~repro.errors.XMLSyntaxError` with
the same message and line after the same tokens.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.workloads import book_xml, random_corpus
from repro.workloads.generators import random_document, random_structure
from repro.xmlio import serialize
from repro.xmlio.tokenizer import Token, Tokenizer, line_at, scan
from tests.reference_tokenizer import Tokenizer as ReferenceTokenizer


def _lex(tokenizer_cls, text):
    """``(tokens, error)``: every token yielded, then the error raised
    (``(message, line)``) or ``None``."""
    tokens = []
    try:
        for t in tokenizer_cls(text).tokens():
            tokens.append((t.kind, t.value, tuple(t.attributes), t.line))
    except XMLSyntaxError as err:
        return tokens, (err.message, err.line)
    return tokens, None


def _lex_scan(text):
    """The same view of :func:`scan`, offsets turned into lines."""
    tokens = []
    try:
        for kind, value, attrs, offset in scan(text):
            tokens.append((kind, value, tuple(attrs), line_at(text, offset)))
    except XMLSyntaxError as err:
        return tokens, (err.message, err.line)
    return tokens, None


def assert_same_lexing(text):
    expected = _lex(ReferenceTokenizer, text)
    assert _lex(Tokenizer, text) == expected, text
    assert _lex_scan(text) == expected, text


# -- seed documents ----------------------------------------------------------


@lru_cache(maxsize=None)
def _random_doc(seed: int, indent) -> str:
    structure = random_structure(seed, n_types=5)
    return serialize(random_document(structure, seed + 1, size_budget=40),
                     indent=indent)


@lru_cache(maxsize=None)
def _library_docs() -> tuple[str, ...]:
    _dtd, trees = random_corpus(n_docs=4, doc_vertices=12, seed=3)
    return tuple(serialize(t, indent=i)
                 for t, i in zip(trees, (2, None, 0, 2)))


@st.composite
def documents(draw):
    """A well-formed document from the workload generators."""
    source = draw(st.sampled_from(["random", "book", "library"]))
    if source == "random":
        return _random_doc(draw(st.integers(0, 40)),
                           draw(st.sampled_from([2, None])))
    if source == "book":
        return book_xml()
    return draw(st.sampled_from(_library_docs()))


# -- grammar-aware mutations -------------------------------------------------

#: constructs left open to the end of input
UNTERMINATED = ["<!-- never closed", "<![CDATA[ never closed",
                "<?pi never closed", "<!DOCTYPE r [ <!ELEMENT r ANY>",
                "<!DOCTYPE r", "<!-- -- ->", "<![CDATA[ ]] >", "<? ? >"]
#: complete constructs that carry nothing for the data model
COMPLETE = ["<!-- c\n -->", "<!---->", "<![CDATA[<x>&y\n]]>", "<![CDATA[]]>",
            "<?pi a?>", "<??>", "<!DOCTYPE r [<!ELEMENT r (a)>]>",
            "<!DOCTYPE r [ [ ] ] >", "<!DOCTYPE r ] [>"]
#: references, good and bad, for text and attribute values
REFERENCES = ["&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;",
              "&#x41;", "&#0065;", "&#x10FFFF;", "&nbsp;", "&", "&#;",
              "&#x;", "&amp", "&#1114112;", "&#x110000;",
              "&#99999999999;", "&#xFFFFFFFFFFFFFFFFFFFF;"]
#: stray markup characters for byte-level noise
NOISE = list("<>/&;\"'= ![]-?\n\r\tax:.") + ["é", "　"]


def _positions(text, marker):
    out, i = [], text.find(marker)
    while i != -1:
        out.append(i)
        i = text.find(marker, i + 1)
    return out


def _tag_boundary(data, text):
    return data.draw(st.sampled_from(_positions(text, "<") + [len(text)]))


def _insert(text, at, piece):
    return text[:at] + piece + text[at:]


def mutate_unbalance(data, text):
    """Drop, add or rename an end tag."""
    ends = _positions(text, "</")
    op = data.draw(st.sampled_from(["drop", "stray", "rename"]))
    if op == "stray" or not ends:
        return _insert(text, _tag_boundary(data, text), "</zz>")
    at = data.draw(st.sampled_from(ends))
    close = text.find(">", at)
    if op == "drop":
        return text[:at] + text[close + 1:]
    return text[:at] + "</mismatch" + text[close:]


def mutate_quoting(data, text):
    """Break one attribute's quoting, or the space before it."""
    quotes = _positions(text, '="')
    if not quotes:
        return _insert(text, _tag_boundary(data, text), "<a x=1/>")
    at = data.draw(st.sampled_from(quotes)) + 1
    close = text.find('"', at + 1)
    op = data.draw(st.sampled_from(
        ["drop-close", "swap-open", "unquote", "drop-equals", "glue",
         "single", "spaces"]))
    if op == "drop-close":
        return text[:close] + text[close + 1:]
    if op == "swap-open":
        return text[:at] + "'" + text[at + 1:]
    if op == "unquote":
        return text[:at] + text[at + 1:close] + text[close + 1:]
    if op == "drop-equals":
        return text[:at - 1] + " " + text[at:]
    if op == "glue":
        return text[:close + 1] + 'q="1"' + text[close + 1:]
    if op == "single":
        return text[:at] + "'" + text[at + 1:close] + "'" + text[close + 1:]
    return text[:at - 1] + " \n = " + text[at:]


def mutate_unterminated(data, text):
    return _insert(text, _tag_boundary(data, text),
                   data.draw(st.sampled_from(UNTERMINATED)))


def mutate_complete(data, text):
    return _insert(text, _tag_boundary(data, text),
                   data.draw(st.sampled_from(COMPLETE)))


def mutate_reference(data, text):
    """Put a reference into text content or an attribute value."""
    ref = data.draw(st.sampled_from(REFERENCES))
    spots = _positions(text, ">") + _positions(text, '="')
    if not spots:
        return text + ref
    at = data.draw(st.sampled_from(spots)) + 1
    if text.startswith('"', at):
        at += 1
    return _insert(text, at, ref)


def mutate_crlf(data, text):
    return text.replace("\n", "\r\n")


def mutate_newlines(data, text):
    at = data.draw(st.integers(0, len(text)))
    return _insert(text, at, data.draw(st.sampled_from(
        ["\n", "\n\n", "\r\n", " \n  text\nmore\n"])))


def mutate_noise(data, text):
    at = data.draw(st.integers(0, max(0, len(text) - 1)))
    if data.draw(st.booleans()):
        return _insert(text, at, data.draw(st.sampled_from(NOISE)))
    return text[:at] + text[at + 1:]


MUTATIONS = [mutate_unbalance, mutate_quoting, mutate_unterminated,
             mutate_complete, mutate_reference, mutate_crlf,
             mutate_newlines, mutate_noise]


# -- the differential properties ---------------------------------------------


class TestDifferential:
    @given(documents())
    @settings(max_examples=60, deadline=None)
    def test_valid_documents(self, text):
        assert_same_lexing(text)
        assert _lex(Tokenizer, text)[1] is None

    @given(documents(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_mutants(self, text, data):
        for _ in range(data.draw(st.integers(1, 3))):
            text = data.draw(st.sampled_from(MUTATIONS))(data, text)
        assert_same_lexing(text)

    @pytest.mark.parametrize("mutation", MUTATIONS,
                             ids=lambda f: f.__name__)
    @given(documents(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_mutation(self, mutation, text, data):
        assert_same_lexing(mutation(data, text))


class TestEngineAgreement:
    """Batch, stream and codegen (str and bytes scanners) agree on every
    mutant: the same report bytes, or the same error message and line."""

    @pytest.fixture(scope="class")
    def engines(self):
        from repro.codegen import CodegenValidator
        from repro.dtd.validate import validate
        from repro.server.registry import as_handle
        from repro.stream import StreamValidator, compile_plan
        from repro.workloads import book_dtdc
        from repro.xmlio.parser import parse_document

        dtd = book_dtdc()
        stream = StreamValidator(compile_plan(dtd))
        codegen = CodegenValidator(as_handle(dtd))
        return {
            "batch": lambda t: validate(parse_document(t, dtd.structure),
                                        dtd),
            "stream": stream.validate_text,
            "codegen": codegen.validate_text,
            "codegen-bytes": lambda t: codegen.validate_bytes(
                t.encode("utf-8")),
        }

    @given(documents(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutants(self, engines, text, data):
        for _ in range(data.draw(st.integers(1, 3))):
            text = data.draw(st.sampled_from(MUTATIONS))(data, text)
        outcomes = {}
        for name, validate_text in engines.items():
            try:
                outcomes[name] = validate_text(text).to_json()
            except XMLSyntaxError as err:
                outcomes[name] = (err.message, err.line)
        assert len(set(outcomes.values())) == 1, (text, outcomes)


class TestLexerCases:
    """Hand-picked inputs for every error branch and token kind."""

    @pytest.mark.parametrize("text", [
        # every token kind, across lines
        '<?xml version="1.0"?>\n<!DOCTYPE a [<!ELEMENT a ANY>]>\n'
        "<!-- c -->\n<a x='1'\n   y=\"2\">t&amp;u<![CDATA[<&>]]><b/></a>\n",
        "<a>\r\nline\r\n<b\r\nx='&#10;'/>\r\n</a>",
        "<a>x &#x41;&#66;&lt;</a>",
        "<a b = 'x\"y' c=\"x'y\" />",
        "<a:b c.d-e_f='1'/>",
        "<élément attré='v'>　</élément>",
        "<a  ></a  >",
        "<!DOCTYPE r ] [>",
        "<!DOCTYPE r [ [ ] ]>",
        "no markup at all",
        "",
        # error branches, with a line to pin
        "<a>\n<!-- oops",
        "<a>\n\n<![CDATA[ oops",
        "<a>\n<?pi oops",
        "<a>\n<!DOCTYPE a [ oops >",
        "<a>\n</>",
        "<a>\n</a b>",
        "<a>\n</a",
        "\n<1/>",
        "\n<a x=1/>",
        "\n<a x='1\"/>",
        "\n<a x='1'y='2'/>",
        "\n<a x='1' y/>",
        "\n<a x='&bogus;' y=1>",
        "\n<a x='1' y='&#1114112;'/>",
        "<a>\n\nfish & chips</a>",
        "<a>\n&unknown;</a>",
        "<a>\n&#x110000;</a>",
        "<a>\n&#99999999999;</a>",
        "<a>text\n<",
        "<",
        "<!",
        "<!ELEMENT a ANY>",
    ])
    def test_case(self, text):
        assert_same_lexing(text)

    def test_error_line_is_the_constructs_first_line(self):
        with pytest.raises(XMLSyntaxError) as err:
            list(scan("<a>\n\n<b x='1'\n y=&#1;/>"))
        assert (err.value.message, err.value.line) == (
            "malformed start tag <b", 3)

    def test_reference_error_line_is_the_tokens_line(self):
        with pytest.raises(XMLSyntaxError) as err:
            list(scan("<a>\n\n<b\n\n x='&#1114112;'/></a>"))
        assert (err.value.message, err.value.line) == (
            "invalid character reference &#1114112;", 3)

    def test_tokens_before_an_error_are_yielded(self):
        tokens = []
        with pytest.raises(XMLSyntaxError):
            for token in scan("<a>x</a><!-- open"):
                tokens.append(token[0])
        assert tokens == ["start", "text", "end"]


class TestAdapter:
    def test_token_is_a_named_tuple(self):
        token = Token("start", "a", (("x", "1"),), 3)
        assert token == ("start", "a", (("x", "1"),), 3)
        assert (token.kind, token.value, token.attributes, token.line) \
            == ("start", "a", (("x", "1"),), 3)
        assert Token("text") == ("text", "", (), 0)
        assert Token(kind="end", value="a", line=2).line == 2

    def test_scan_is_lazy(self):
        tokens = scan("<a>" * 1000 + "<")
        assert next(tokens) == ("start", "a", (), 0)
