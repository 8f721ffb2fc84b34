"""Character escaping and entity resolution for XML text."""

from __future__ import annotations

import re
import sys

from repro.errors import XMLSyntaxError

_PREDEFINED = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_ENTITY_RE = re.compile(r"&(#x[0-9A-Fa-f]+|#[0-9]+|[A-Za-z][\w.\-]*);")


def unescape(text: str, line: int | None = None) -> str:
    """Resolve predefined and numeric character references.

    Unknown named entities raise :class:`XMLSyntaxError` (the library
    does not support custom entity declarations), and so do numeric
    references beyond U+10FFFF.
    """

    def replace(m: re.Match) -> str:
        body = m.group(1)
        if body.startswith("#"):
            hexadecimal = body.startswith("#x")
            # Leading zeros are legal; past them, more than seven digits
            # is out of range in either base (and int() need not parse
            # an arbitrarily long string to say so).
            digits = body[2 if hexadecimal else 1:].lstrip("0") or "0"
            if len(digits) <= 7:
                code = int(digits, 16 if hexadecimal else 10)
                if code <= sys.maxunicode:
                    return chr(code)
            raise XMLSyntaxError(
                f"invalid character reference &{body};", line=line)
        try:
            return _PREDEFINED[body]
        except KeyError:
            raise XMLSyntaxError(f"unknown entity &{body};",
                                 line=line) from None

    if "&" not in text:
        return text
    out = _ENTITY_RE.sub(replace, text)
    if "&" in _ENTITY_RE.sub("", text):
        raise XMLSyntaxError("bare '&' in character data (use &amp;)",
                             line=line)
    return out


def escape_text(text: str) -> str:
    """Escape character data for element content."""
    return text.replace("&", "&amp;").replace("<", "&lt;") \
        .replace(">", "&gt;")


def escape_attribute(text: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return escape_text(text).replace('"', "&quot;")
