"""Data model for XML documents (Definition 2.1 of the paper).

An XML document is represented as a *data tree* ``(V, elem, att, root)``:

- ``V`` is a finite set of vertices,
- ``elem`` maps each vertex to its element label and its ordered list of
  children (each child is either a string value or another vertex),
- ``att`` is a partial function from (vertex, attribute-name) pairs to
  finite sets of string values,
- ``root`` is a distinguished vertex.

The public classes are :class:`Vertex` and :class:`DataTree`; a fluent
:class:`TreeBuilder` makes constructing documents in code pleasant, and
:class:`AttributeIndex` provides the hash indexes used by the linear-time
constraint checker.
"""

from repro._lazy import surface as _surface

__all__ = ["DataTree", "Vertex", "TreeBuilder", "AttributeIndex"]

__getattr__, __dir__ = _surface(__name__, {
    "repro.datamodel.tree": ("DataTree", "Vertex"),
    "repro.datamodel.builder": ("TreeBuilder",),
    "repro.datamodel.indexes": ("AttributeIndex",),
})
