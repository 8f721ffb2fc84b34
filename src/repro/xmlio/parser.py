"""XML document parsing into the data model.

:func:`parse_document` builds a :class:`~repro.datamodel.tree.DataTree`
from XML text.  When a :class:`~repro.dtd.structure.DTDStructure` is
supplied, attributes declared set-valued (IDREFS-style) are split on
whitespace into value sets, matching the paper's treatment of set-valued
attributes; all other attributes become singleton sets.

Whitespace-only text between elements is dropped unless
``keep_whitespace=True`` — the data model of the paper has no notion of
ignorable whitespace, but real XML serializations indent.

The parser unpacks the ``(kind, value, attributes, offset)`` tuples of
:func:`repro.xmlio.tokenizer.scan`, the scanner the streaming validator
shares; an offset becomes a line number only for an error.
"""

from __future__ import annotations

from repro.datamodel.tree import DataTree, Vertex
from repro.dtd.structure import DTDStructure
from repro.errors import XMLSyntaxError
from repro.xmlio.tokenizer import line_at, scan


def parse_document(text: str, structure: DTDStructure | None = None,
                   keep_whitespace: bool = False, obs=None) -> DataTree:
    """Parse XML text into a data tree.

    Raises :class:`~repro.errors.XMLSyntaxError` on malformed input
    (mismatched tags, multiple roots, stray text outside the root).
    ``obs`` (an optional :class:`repro.obs.Observability` handle) times
    the parse under an ``xmlio.parse`` span and counts documents and
    vertices parsed.
    """
    if not obs:
        return _parse_document(text, structure, keep_whitespace)
    with obs.span("xmlio.parse", chars=len(text)) as span:
        tree = _parse_document(text, structure, keep_whitespace)
        n = tree.size()
        span.set(vertices=n)
        obs.counter("xmlio_documents_parsed",
                    help="XML documents parsed").inc()
        obs.counter("xmlio_vertices_parsed",
                    help="element vertices built by the XML parser").add(n)
    return tree


def _parse_document(text: str, structure: DTDStructure | None,
                    keep_whitespace: bool) -> DataTree:
    tree: DataTree | None = None
    stack: list[Vertex] = []
    # (text chunk, offset) awaiting the next tag
    pending_text: list[tuple[str, int]] = []

    def flush_text() -> None:
        for chunk, offset in pending_text:
            if not stack:
                if chunk.strip():
                    raise XMLSyntaxError(
                        "character data outside the root element",
                        line=line_at(text, offset))
                continue
            if keep_whitespace or chunk.strip():
                stack[-1].append(chunk)
        pending_text.clear()

    def open_element(label: str, attributes: tuple, offset: int) -> Vertex:
        nonlocal tree
        if tree is None:
            tree = DataTree(label)
            vertex = tree.root
        else:
            if not stack:
                raise XMLSyntaxError(f"second root element {label!r}",
                                     line=line_at(text, offset))
            vertex = tree.create(label)
            stack[-1].append(vertex)
        for name, raw in attributes:
            vertex.set_attribute(name, _attribute_values(
                label, name, raw, structure))
        return vertex

    for kind, value, attributes, offset in scan(text):
        if kind == "text":
            pending_text.append((value, offset))
            continue
        if kind in ("comment", "pi", "doctype"):
            continue
        if pending_text:
            flush_text()
        if kind == "start":
            stack.append(open_element(value, attributes, offset))
        elif kind == "empty":
            open_element(value, attributes, offset)
        else:  # "end"
            if not stack:
                raise XMLSyntaxError(f"unexpected end tag </{value}>",
                                     line=line_at(text, offset))
            top = stack.pop()
            if top.label != value:
                raise XMLSyntaxError(
                    f"end tag </{value}> does not match open "
                    f"element <{top.label}>", line=line_at(text, offset))
    flush_text()
    if tree is None:
        raise XMLSyntaxError("document has no root element")
    if stack:
        raise XMLSyntaxError(
            f"unclosed element <{stack[-1].label}> at end of input")
    return tree


def _attribute_values(element: str, attribute: str, raw: str,
                      structure: DTDStructure | None) -> frozenset[str]:
    if structure is not None and \
            structure.has_element(element) and \
            structure.has_attribute(element, attribute) and \
            structure.is_set_valued(element, attribute):
        return frozenset(raw.split())
    return frozenset((raw,))


def parse_document_with_dtd(text: str, keep_whitespace: bool = False):
    """Parse a document whose DOCTYPE carries an internal DTD subset.

    Returns ``(DTD^C, data tree)``: the subset's declarations (plus any
    constraint lines in ``<!-- constraints: ... -->`` comments inside
    it) become the schema, the DOCTYPE name fixes the root element type,
    and the document is re-parsed with that structure so set-valued
    (IDREFS-style) attributes split correctly.

    Raises :class:`~repro.errors.XMLSyntaxError` when no internal subset
    is present.
    """
    from repro.xmlio.dtdparse import parse_dtdc

    doctype = None
    for kind, value, _attributes, _offset in scan(text):
        if kind == "doctype":
            doctype = value
            break
        if kind in ("start", "empty"):
            break
    if doctype is None or "[" not in doctype:
        raise XMLSyntaxError(
            "document has no DOCTYPE with an internal DTD subset")
    name, _bracket, rest = doctype.partition("[")
    subset = rest.rsplit("]", 1)[0]
    dtd = parse_dtdc(subset, root=name.strip() or None)
    tree = parse_document(text, dtd.structure,
                          keep_whitespace=keep_whitespace)
    return dtd, tree
