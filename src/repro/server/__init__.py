"""The long-lived validation service: registry + daemon.

The expensive per-schema artifacts — the parsed ``DTD^C``, its
content-addressed fingerprint, and the compiled per-label
:class:`~repro.stream.StreamPlan` — are built exactly once per process
by the :class:`SchemaRegistry` and served hot by the
:class:`ValidationServer` behind ``repro-xic serve``::

    from repro import SchemaRegistry
    from repro.server import ValidationServer

    registry = SchemaRegistry()
    registry.load("book", "schemas/book.dtdc", root="book")
    server = ValidationServer(registry, cache="~/.cache/repro")
    # await server.start_http("127.0.0.1", 8080)

See :mod:`repro.server.registry` for the handle/hot-swap semantics and
:mod:`repro.server.daemon` for the wire protocols.
"""

from repro._lazy import surface as _surface

__all__ = [
    "SchemaHandle",
    "SchemaNotFound",
    "SchemaRegistry",
    "ValidationServer",
    "as_handle",
]

__getattr__, __dir__ = _surface(__name__, {
    "repro.server.daemon": ("ValidationServer",),
    "repro.server.registry": (
        "SchemaHandle", "SchemaNotFound", "SchemaRegistry", "as_handle"),
})
