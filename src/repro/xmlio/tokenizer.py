"""The XML scanner: one compiled master pattern, line numbers on demand.

:func:`scan` lexes a document with a single ``re`` alternation that
covers every construct the data model of the paper needs — character
data, a start or empty-element tag with its whole attribute run, an end
tag, a comment, a CDATA section and a processing instruction (the XML
declaration included).  Only the DOCTYPE declaration leaves the pattern:
its internal subset nests brackets, so a small dedicated branch counts
bracket depth and captures the subset verbatim for the DTD parser.

The scanner is a lazy generator of plain tuples
``(kind, value, attributes, offset)``; batch parsing
(:func:`repro.xmlio.parser.parse_document`) and the streaming validator
(:mod:`repro.stream.validator`) both unpack them directly.  Nothing is
paid per token beyond the match and the tuple:

- attributes are split out of the matched run by one ``findall``, and
  :func:`~repro.xmlio.escape.unescape` runs only on a value (or text)
  that contains ``&``;
- element and attribute names are interned, because every consumer
  dispatches on labels through dicts;
- no line is counted on the happy path.  A token carries its character
  offset, and :func:`line_at` turns an offset into a 1-based line only
  when an error is raised — here, in ``unescape`` failures, and in the
  consumers' own well-formedness errors.

Where the pattern does not match, the construct at the cursor is
malformed; a diagnosis routine walks it the way a construct-at-a-time
tokenizer would, so each malformation raises the same
:class:`~repro.errors.XMLSyntaxError` message at the line of the
construct's first character.

:class:`Tokenizer` is the thin public adapter for callers that want
:class:`Token` records with a ``line`` field instead of offsets.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterator
from typing import NamedTuple, NoReturn

from repro.errors import XMLSyntaxError
from repro.xmlio.escape import unescape

_NAME = r"[A-Za-z_:][\w:.\-]*"
_QUOTED = r"(?:\"[^\"]*\"|'[^']*')"

_NAME_RE = re.compile(_NAME)
_ATTR_RE = re.compile(rf"\s+({_NAME})\s*=\s*({_QUOTED})")
_DOCTYPE_MARK_RE = re.compile(r"[\[\]>]")

#: One alternation per construct.  The branches start with disjoint
#: prefixes, so their order decides speed only.  ``Match.lastindex``
#: names the branch: 1 text, 4 start/empty tag (groups 2-4), 5 end tag,
#: 6 comment, 7 CDATA, 8 PI, 9 the start of a DOCTYPE.
_MASTER = re.compile(
    r"([^<]+)"
    rf"|<({_NAME})((?:\s+{_NAME}\s*=\s*{_QUOTED})*)\s*(/?)>"
    rf"|</({_NAME})\s*>"
    r"|<!--(.*?)-->"
    r"|<!\[CDATA\[(.*?)\]\]>"
    r"|<\?(.*?)\?>"
    r"|(<!DOCTYPE)",
    re.DOTALL)

_DOCTYPE_LEN = len("<!DOCTYPE")


def line_at(text: str, offset: int) -> int:
    """The 1-based line of ``text`` on which ``offset`` falls."""
    return text.count("\n", 0, offset) + 1


def scan(text: str) -> Iterator[tuple[str, str, tuple, int]]:
    """Yield ``(kind, value, attributes, offset)`` for each token.

    ``kind`` is ``'start'``, ``'empty'``, ``'end'``, ``'text'`` (CDATA
    included, never unescaped), ``'comment'``, ``'pi'`` or
    ``'doctype'``; ``value`` is the element name or the token's body;
    ``attributes`` is a tuple of ``(name, value)`` pairs (empty except
    on tags); ``offset`` is where the token starts in ``text``.

    Raises :class:`~repro.errors.XMLSyntaxError` at the first lexical
    error, after yielding every token before it.
    """
    match = _MASTER.match
    attributes_of = _ATTR_RE.findall
    intern = sys.intern
    pos = 0
    size = len(text)
    while pos < size:
        m = match(text, pos)
        if m is None:
            _diagnose(text, pos)
        start = pos
        pos = m.end()
        branch = m.lastindex
        if branch == 1:
            value = m.group(1)
            if "&" in value:
                value = _cook(value, text, start)
            yield "text", value, (), start
        elif branch == 4:
            name, run, slash = m.group(2, 3, 4)
            if not run:
                attrs = ()
            elif "&" in run:
                attrs = tuple([
                    (intern(attr), _cook(quoted[1:-1], text, start))
                    for attr, quoted in attributes_of(run)])
            else:
                attrs = tuple([(intern(attr), quoted[1:-1])
                               for attr, quoted in attributes_of(run)])
            yield ("empty" if slash else "start"), intern(name), attrs, start
        elif branch == 5:
            yield "end", intern(m.group(5)), (), start
        elif branch == 6:
            yield "comment", m.group(6), (), start
        elif branch == 7:
            yield "text", m.group(7), (), start
        elif branch == 8:
            yield "pi", m.group(8), (), start
        else:
            body, pos = _doctype(text, start)
            yield "doctype", body, (), start


def _cook(raw: str, text: str, offset: int) -> str:
    """``unescape(raw)``, failing at the line of ``offset``."""
    try:
        return unescape(raw)
    except XMLSyntaxError as err:
        raise XMLSyntaxError(err.message,
                             line=line_at(text, offset)) from None


def _doctype(text: str, start: int) -> tuple[str, int]:
    """Consume ``<!DOCTYPE name [internal subset]>`` from ``start``.

    A ``>`` ends the declaration only outside brackets; returns the
    stripped body and the offset just past the ``>``.
    """
    depth = 0
    in_bracket = False
    for m in _DOCTYPE_MARK_RE.finditer(text, start):
        ch = m.group()
        if ch == "[":
            in_bracket = True
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                in_bracket = False
        elif not in_bracket:
            return text[start + _DOCTYPE_LEN:m.start()].strip(), m.end()
    raise XMLSyntaxError("unterminated DOCTYPE declaration",
                         line=line_at(text, start))


def _diagnose(text: str, pos: int) -> NoReturn:
    """Raise the error for the malformed construct at ``pos``.

    Called only where the master pattern failed, so ``text[pos]`` is
    ``<`` and the construct cannot be completed; attribute values are
    still unescaped in order, because a bad reference in an attribute
    is reported before a bad tag ending.
    """
    line = line_at(text, pos)
    if text.startswith("<!--", pos):
        raise XMLSyntaxError("unterminated comment", line=line)
    if text.startswith("<![CDATA[", pos):
        raise XMLSyntaxError("unterminated CDATA section", line=line)
    if text.startswith("<?", pos):
        raise XMLSyntaxError("unterminated processing instruction",
                             line=line)
    if text.startswith("</", pos):
        m = _NAME_RE.match(text, pos + 2)
        if m is None:
            raise XMLSyntaxError("malformed end tag", line=line)
        raise XMLSyntaxError(f"malformed end tag </{m.group()}", line=line)
    m = _NAME_RE.match(text, pos + 1)
    if m is None:
        raise XMLSyntaxError("malformed start tag", line=line)
    i = m.end()
    while (am := _ATTR_RE.match(text, i)) is not None:
        unescape(am.group(2)[1:-1], line)
        i = am.end()
    raise XMLSyntaxError(f"malformed start tag <{m.group()}", line=line)


class Token(NamedTuple):
    """One lexical unit of the XML document, with its line number."""

    kind: str  # 'start' | 'end' | 'empty' | 'text' | 'comment' | 'pi' | 'doctype'
    value: str = ""
    attributes: tuple[tuple[str, str], ...] = ()
    line: int = 0


class Tokenizer:
    """Tokenize an XML document string into :class:`Token` records.

    An adapter over :func:`scan` that turns offsets into line numbers
    incrementally; the validation engines call :func:`scan` directly.
    """

    def __init__(self, text: str):
        self.text = text

    def tokens(self) -> Iterator[Token]:
        """Yield :class:`Token` objects until end of input."""
        text = self.text
        count = text.count
        # tuple.__new__ skips the Python-level NamedTuple constructor
        make = tuple.__new__
        line = 1
        last = 0
        for kind, value, attrs, offset in scan(text):
            line += count("\n", last, offset)
            last = offset
            yield make(Token, (kind, value, attrs, line))
