"""The basic XML constraint languages L, L_u and L_id (§2.2).

Constraint objects are immutable, hashable dataclasses.  Fields of a
constraint may be *attributes* or (per §3.4) *unique sub-elements*; both
are represented by :class:`Field`.

- ``L``   : :class:`Key` (``tau[X] -> tau``) and :class:`ForeignKey`
  (``tau[X] ⊆ tau'[Y]``);
- ``L_u`` : :class:`UnaryKey`, :class:`UnaryForeignKey`,
  :class:`SetValuedForeignKey`, :class:`Inverse`;
- ``L_id``: :class:`UnaryKey`, :class:`IDConstraint`,
  :class:`IDForeignKey`, :class:`IDSetValuedForeignKey`,
  :class:`IDInverse`.

Satisfaction is checked with :func:`check` (indexed, near-linear) or
:func:`check_naive` (quadratic baseline, kept for the E13 ablation);
well-formedness against a DTD structure with :func:`well_formed`.
"""

from repro._lazy import surface as _surface

__all__ = [
    "Constraint", "Field", "Language", "attr", "elem",
    "Key", "ForeignKey",
    "UnaryKey", "UnaryForeignKey", "SetValuedForeignKey", "Inverse",
    "IDConstraint", "IDForeignKey", "IDSetValuedForeignKey", "IDInverse",
    "check", "check_constraint", "check_naive",
    "Violation", "ViolationReport", "well_formed",
    "parse_constraint", "parse_constraints",
]

__getattr__, __dir__ = _surface(__name__, {
    "repro.constraints.base": (
        "Constraint", "Field", "Language", "attr", "elem"),
    "repro.constraints.lang_l": ("ForeignKey", "Key"),
    "repro.constraints.lang_lu": (
        "Inverse", "SetValuedForeignKey", "UnaryForeignKey", "UnaryKey"),
    "repro.constraints.lang_lid": (
        "IDConstraint", "IDForeignKey", "IDInverse",
        "IDSetValuedForeignKey"),
    "repro.constraints.checker": ("check", "check_constraint", "check_naive"),
    "repro.constraints.violations": ("Violation", "ViolationReport"),
    "repro.constraints.wellformed": ("well_formed",),
    "repro.constraints.parser": ("parse_constraint", "parse_constraints"),
})
