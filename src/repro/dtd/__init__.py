"""DTD structures and DTDs with constraints (Definitions 2.2-2.4).

- :class:`DTDStructure` is the structural half ``S = (E, P, R, kind, r)``:
  element types, content models, attribute types (single- or set-valued)
  and the ``kind`` partial function marking ID / IDREF attributes.
- :class:`DTDC` pairs a structure with a set Σ of basic XML constraints
  (Definition 2.3).
- :func:`validate` / :class:`ValidationReport` implement the validity
  notion of Definition 2.4: structural conformance plus ``G ⊨ Σ``.
"""

from repro._lazy import surface as _surface

__all__ = ["AttributeKind", "DTDStructure", "DTDC", "ValidationReport",
           "validate"]

__getattr__, __dir__ = _surface(__name__, {
    "repro.dtd.structure": ("AttributeKind", "DTDStructure"),
    "repro.dtd.dtdc": ("DTDC",),
    "repro.dtd.validate": ("ValidationReport", "validate"),
})
