"""Tests for :mod:`repro.stream` — the compiled per-label plan and the
single-pass streaming validator.

The load-bearing promise is *byte identity*: for every document,
``StreamValidator(...).validate_text(text).to_json()`` equals the batch
``validate(parse_document(text, S), dtd).to_json()`` — same violations,
same messages, same order.  The randomized side of that promise lives in
``test_stream_equivalence.py``; this file pins the deliberate cases and
the plumbing (plan compilation, pickling, the facade, interning, obs).
"""

import pickle

import pytest

from repro import Validator
from repro.dtd.validate import validate
from repro.errors import XMLSyntaxError
from repro.obs import Observability
from repro.stream import StreamPlan, StreamValidator, compile_plan
from repro.xmlio import serialize
from repro.xmlio.dtdparse import parse_dtdc
from repro.xmlio.parser import parse_document

LIB_SCHEMA = """
<!ELEMENT library (entry*, ref*)>
<!ELEMENT entry (#PCDATA)?>
<!ELEMENT ref EMPTY>
<!ATTLIST entry isbn CDATA #REQUIRED shelf CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
%% constraints
entry.isbn -> entry
ref.to sub entry.isbn
"""


@pytest.fixture(scope="module")
def lib():
    return parse_dtdc(LIB_SCHEMA)


def _both(dtd, text):
    """(batch_json, stream_json) for one document/schema pair."""
    batch = validate(parse_document(text, dtd.structure), dtd)
    stream = StreamValidator(compile_plan(dtd)).validate_text(text)
    return batch.to_json(), stream.to_json()


# -- the plan ---------------------------------------------------------------


class TestStreamPlan:
    def test_compile_once_per_schema(self, lib):
        plan = compile_plan(lib)
        assert isinstance(plan, StreamPlan)
        assert plan.root == "library"
        assert set(plan.labels) == {"library", "entry", "ref"}
        # both constraints touch entry; only the inclusion touches ref
        assert len(plan.labels["entry"].evaluators) == 2
        assert len(plan.labels["ref"].evaluators) == 1
        assert plan.labels["library"].evaluators == ()

    def test_relevant_labels(self, lib):
        plan = compile_plan(lib)
        assert plan.relevant == {"entry", "ref"}

    def test_plan_survives_pickling(self, lib):
        plan = compile_plan(lib)
        _ = plan.matchers  # force the lazy table, then drop it in transit
        clone = pickle.loads(pickle.dumps(plan))
        assert clone._matchers is None
        text = ('<library><entry isbn="1" shelf="a">x</entry>'
                '<ref to="1"/></library>')
        assert StreamValidator(clone).validate_text(text).to_json() \
            == StreamValidator(plan).validate_text(text).to_json()


# -- byte identity on deliberate cases --------------------------------------


class TestByteIdentity:
    def test_book_fixture(self, book):
        dtd, doc = book
        b, s = _both(dtd, serialize(doc))
        assert b == s

    def test_valid_library(self, lib):
        b, s = _both(lib, '<library><entry isbn="1" shelf="a">x</entry>'
                          '<ref to="1"/></library>')
        assert b == s

    @pytest.mark.parametrize("text", [
        # wrong root + undeclared elements carrying children/attributes
        '<shelf><widget size="3"><gear/></widget></shelf>',
        # content model stuck mid-word
        '<library><ref to="1"/><entry isbn="1" shelf="a"/></library>',
        # duplicate keys and dangling references
        '<library><entry isbn="1" shelf="a"/>'
        '<entry isbn="1" shelf="b"/><ref to="9"/></library>',
        # empty root: content model still consulted
        '<library/>',
        # missing, undeclared and single-vs-multi-valued attributes
        '<library><entry isbn="1 2" shelf="a" color="red"/></library>',
        # text where the model allows none
        '<library><entry isbn="1" shelf="a"/>oops</library>',
    ])
    def test_invalid_documents(self, lib, text):
        b, s = _both(lib, text)
        assert b == s

    def test_keep_whitespace_parity(self, lib):
        text = '<library>\n  <entry isbn="1" shelf="a"/>\n</library>'
        batch = validate(parse_document(text, lib.structure,
                                        keep_whitespace=True), lib)
        stream = StreamValidator(compile_plan(lib)) \
            .validate_text(text, keep_whitespace=True)
        assert batch.to_json() == stream.to_json()


class TestWellformedness:
    """Malformed input raises the same ``XMLSyntaxError`` (message and
    all) the tree parser raises."""

    @pytest.mark.parametrize("text", [
        "<a></b>",
        "</a>",
        "<a/><b/>",
        "<a>",
        "",
        "just text",
        "<a></a>trailing",
    ])
    def test_same_error_as_parser(self, lib, text):
        with pytest.raises(XMLSyntaxError) as batch_err:
            parse_document(text, lib.structure)
        with pytest.raises(XMLSyntaxError) as stream_err:
            StreamValidator(compile_plan(lib)).validate_text(text)
        assert str(stream_err.value) == str(batch_err.value)

    #: (document, message, line): lexer-level errors (unterminated
    #: constructs, malformed tags, bad references) and parser-level
    #: ones, each on a line other than the first where it can be
    LINED = [
        ("<library>\n<!-- never closed",
         "unterminated comment", 2),
        ("<library>\n\n<![CDATA[ never closed",
         "unterminated CDATA section", 3),
        ("<library>\n<?pi never closed",
         "unterminated processing instruction", 2),
        ("<!DOCTYPE library [\n<!ELEMENT library ANY>\n",
         "unterminated DOCTYPE declaration", 1),
        ("<library>\n</>",
         "malformed end tag", 2),
        ("<library>\n</library x>",
         "malformed end tag </library", 2),
        ("\n<1/>",
         "malformed start tag", 2),
        ("<library>\n<entry isbn=1 shelf='a'/>",
         "malformed start tag <entry", 2),
        ('<library>\n<entry isbn=\'1" shelf=\'a\'/>',
         "malformed start tag <entry", 2),
        ("<library>\n<entry isbn='1'shelf='a'/>",
         "malformed start tag <entry", 2),
        ("<library>\n<entry isbn='&bogus;' shelf='a'/>",
         "unknown entity &bogus;", 2),
        ("<library>\n<entry isbn='1' shelf='a'>fish & chips</entry>",
         "bare '&' in character data (use &amp;)", 2),
        ("<library>\n<entry isbn='1' shelf='a'>\n&#1114112;</entry></library>",
         "invalid character reference &#1114112;", 2),
        ("<library>\n<ref to='&#x110000;'/></library>",
         "invalid character reference &#x110000;", 2),
        ("<library>\n\n\n<ref to='&#99999999999;'/></library>",
         "invalid character reference &#99999999999;", 4),
        ("<library>\r\n<entry>\r\n</library>",
         "end tag </library> does not match open element <entry>", 3),
        ("<library/>\n\n<library/>",
         "second root element 'library'", 3),
        ("<library>\n\n</entry>",
         "end tag </entry> does not match open element <library>", 3),
        ("<library/>\n</library>",
         "unexpected end tag </library>", 2),
        ("<library/>\n\ntrailing",
         "character data outside the root element", 1),
        ("\n\nleading<library/>",
         "character data outside the root element", 1),
    ]

    @pytest.mark.parametrize("text, message, line", LINED)
    def test_same_message_and_line(self, lib, text, message, line):
        with pytest.raises(XMLSyntaxError) as batch_err:
            parse_document(text, lib.structure)
        with pytest.raises(XMLSyntaxError) as stream_err:
            StreamValidator(compile_plan(lib)).validate_text(text)
        for err in (batch_err.value, stream_err.value):
            assert (err.message, err.line) == (message, line)


# -- the facade -------------------------------------------------------------


class TestCheckStream:
    def test_text_input(self, lib):
        report = Validator(lib).check_stream(
            '<library><entry isbn="1" shelf="a"/></library>')
        assert report.ok

    def test_path_input(self, lib, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text('<library><entry isbn="1" shelf="a"/>'
                        '<ref to="9"/></library>')
        report = Validator(lib).check_stream(path)
        assert not report.ok
        assert report.violations[0].code == "foreign-key"

    def test_matches_validate(self, book):
        dtd, doc = book
        text = serialize(doc)
        v = Validator(dtd)
        assert v.check_stream(text).to_json() == v.validate(
            parse_document(text, dtd.structure)).to_json()

    def test_plan_cached_on_validator(self, lib):
        v = Validator(lib)
        v.check_stream("<library/>")
        plan = v._stream_plan
        v.check_stream("<library/>")
        assert v._stream_plan is plan


# -- label interning --------------------------------------------------------


class TestInterning:
    def test_tokenizer_interns_names(self):
        from repro.xmlio.tokenizer import Tokenizer

        tokens = list(Tokenizer(
            '<a><b x="1"/><b x="2"/></a>').tokens())
        starts = [t for t in tokens if t.kind == "empty"]
        assert starts[0].value is starts[1].value
        assert starts[0].attributes[0][0] is starts[1].attributes[0][0]

    def test_tree_interns_labels(self):
        from repro.datamodel.tree import DataTree

        t = DataTree("a")
        v1 = t.create_under(t.root, "b")
        v2 = t.create_under(t.root, "b")
        assert v1.label is v2.label


# -- observability ----------------------------------------------------------


class TestStreamObservability:
    def test_counters_and_spans(self, lib):
        obs = Observability()
        StreamValidator(compile_plan(lib), obs=obs).validate_text(
            '<library><entry isbn="1" shelf="a">x</entry>'
            '<ref to="1"/></library>')
        metrics = {m["name"]: m for m in obs.metrics.to_dicts()
                   if not m["labels"]}
        assert metrics["stream_events"]["value"] >= 5
        assert metrics["stream_elements"]["value"] == 3
        names = set()
        todo = list(obs.tracer.to_dicts())
        while todo:
            span = todo.pop()
            names.add(span["name"])
            todo.extend(span["children"])
        assert {"stream.validate", "stream.emit",
                "stream.dispatch"} <= names

    def test_no_obs_still_validates(self, lib):
        report = StreamValidator(compile_plan(lib)).validate_text(
            "<library/>")
        assert report.ok  # (entry*, ref*) accepts the empty word
