"""Out-of-range character references are syntax errors, everywhere.

``&#1114112;``, ``&#x110000;`` and ``&#99999999999;`` name no Unicode
character.  They must raise :class:`~repro.errors.XMLSyntaxError` with
the line of the token that carries them — never a ``ValueError`` or
``OverflowError`` — so every entry point classifies them as an input
error: the three engines agree on message and line, the CLI exits 2,
and a ``serve --stdio`` child answers with an error reply and keeps
serving.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import Validator
from repro.cli.main import main
from repro.errors import XMLSyntaxError
from repro.workloads import book_dtdc
from repro.xmlio.escape import unescape

pytestmark = pytest.mark.usefixtures("capsys")

BAD_REFERENCES = ["&#1114112;", "&#x110000;", "&#99999999999;"]

BOOK_SCHEMA = os.path.join(os.path.dirname(__file__), "fixtures",
                           "book.dtdc")


def _in_text(ref):
    return ("<book>\n<entry isbn='1'><title>\n\n" + ref
            + "</title><publisher>p</publisher></entry><ref to='1'/></book>")


def _in_attribute(ref):
    return ("<book>\n<entry isbn='1'><title>t</title><publisher>p"
            "</publisher></entry>\n<ref\n to='" + ref + "'/></book>")


def _error(call):
    with pytest.raises(XMLSyntaxError) as err:
        call()
    return err.value.message, err.value.line


class TestUnescape:
    @pytest.mark.parametrize("ref", BAD_REFERENCES)
    def test_out_of_range_reference_is_a_syntax_error(self, ref):
        assert _error(lambda: unescape(f"x{ref}y", 7)) == (
            f"invalid character reference {ref}", 7)

    @pytest.mark.parametrize("ref, char", [
        ("&#x10FFFF;", "\U0010ffff"), ("&#1114111;", "\U0010ffff"),
        ("&#65;", "A"), ("&#x41;", "A"), ("&#000000000065;", "A"),
        ("&#x" + "0" * 5000 + "41;", "A")])
    def test_in_range_references_still_resolve(self, ref, char):
        assert unescape(ref) == char

    def test_very_long_reference_is_a_syntax_error(self):
        ref = "&#" + "9" * 5000 + ";"
        assert _error(lambda: unescape(ref))[0] == \
            f"invalid character reference {ref}"


class TestEngines:
    @pytest.mark.parametrize("ref", BAD_REFERENCES)
    @pytest.mark.parametrize("place, line", [(_in_text, 2),
                                             (_in_attribute, 3)])
    def test_every_engine_reports_the_same_error(self, ref, place, line):
        text = place(ref)
        validator = Validator(book_dtdc())
        expected = (f"invalid character reference {ref}", line)
        for engine in ("batch", "stream", "codegen", "auto"):
            assert _error(lambda: validator.check(text, engine=engine)) \
                == expected, engine
        from repro.codegen import CodegenValidator

        codegen = CodegenValidator(validator.handle)
        assert _error(lambda: codegen.validate_bytes(
            text.encode("utf-8"))) == expected


class TestEntryPoints:
    @pytest.mark.parametrize("ref", BAD_REFERENCES)
    @pytest.mark.parametrize("engine", ["batch", "stream", "codegen"])
    def test_cli_validate_exits_2(self, ref, engine, tmp_path, capsys):
        doc = tmp_path / "bad.xml"
        doc.write_text(_in_attribute(ref))
        assert main(["--root", "book", "validate", "--engine", engine,
                     str(doc), BOOK_SCHEMA]) == 2
        assert f"invalid character reference {ref} at line 3" \
            in capsys.readouterr().err

    def test_stdio_child_answers_and_keeps_serving(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),) if p]
            + [p for p in sys.path if p])
        requests = [{"op": "validate", "schema": "book",
                     "document": _in_attribute(ref), "id": i}
                    for i, ref in enumerate(BAD_REFERENCES)]
        requests.append({"op": "ping", "id": "ping"})
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "-q", "--root", "book",
             "serve", "--stdio", "--schema", f"book={BOOK_SCHEMA}"],
            input="".join(json.dumps(r) + "\n" for r in requests),
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        replies = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["id"] for r in replies] == [0, 1, 2, "ping"]
        for ref, reply in zip(BAD_REFERENCES, replies):
            assert reply["ok"] is False
            assert reply["code"] == "invalid-document"
            assert reply["error"] == \
                f"invalid character reference {ref} at line 3"
        assert replies[-1]["ok"] is True
