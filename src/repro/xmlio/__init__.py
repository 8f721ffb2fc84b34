"""XML and DTD text processing, implemented from scratch.

- :func:`parse_document` — XML text to a
  :class:`~repro.datamodel.tree.DataTree` (with optional DTD-driven
  splitting of set-valued attributes);
- :func:`serialize` — data tree back to XML text;
- :func:`parse_dtd` — DTD declarations to a
  :class:`~repro.dtd.structure.DTDStructure`;
- :func:`parse_dtdc` — the ``.dtdc`` format (DTD declarations plus
  constraint lines) to a :class:`~repro.dtd.dtdc.DTDC`;
- :func:`serialize_dtdc` — the reverse.
"""

from repro._lazy import surface as _surface

__all__ = ["parse_document", "parse_document_with_dtd", "serialize",
           "parse_dtd", "parse_dtdc", "serialize_dtdc"]

__getattr__, __dir__ = _surface(__name__, {
    "repro.xmlio.parser": ("parse_document", "parse_document_with_dtd"),
    "repro.xmlio.serializer": ("serialize",),
    "repro.xmlio.dtdparse": ("parse_dtd", "parse_dtdc", "serialize_dtdc"),
})
