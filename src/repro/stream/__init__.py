"""Streaming single-pass validation.

Compile ``DTD^C`` once (:func:`compile_plan`), then validate any number
of documents straight from the token stream in O(depth + |Σ| residual
state) memory::

    from repro.stream import StreamValidator, compile_plan

    plan = compile_plan(dtd)                 # once per schema
    report = StreamValidator(plan).validate_text(xml_text)

Reports are byte-identical (``to_json()``) to the batch path
``validate(parse_document(text, dtd.structure), dtd)``; see
:mod:`repro.stream.validator` for the ordering argument.  The friendly
entry point is ``repro.Validator(dtd).check_stream(path_or_text)``.
"""

from repro._lazy import surface as _surface

__all__ = [
    "LabelPlan",
    "StreamIndex",
    "StreamPlan",
    "StreamValidator",
    "StreamVertex",
    "compile_plan",
]

__getattr__, __dir__ = _surface(__name__, {
    "repro.stream.plan": ("LabelPlan", "StreamPlan", "compile_plan"),
    "repro.stream.validator": (
        "StreamIndex", "StreamValidator", "StreamVertex"),
})
