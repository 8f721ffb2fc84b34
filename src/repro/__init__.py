"""repro: a reproduction of "Integrity Constraints for XML"
(Wenfei Fan and Jerome Simeon, PODS 2000).

The package implements the paper end-to-end:

- the XML data model and DTDs with constraints (§2):
  :mod:`repro.datamodel`, :mod:`repro.xmlio`, :mod:`repro.regexlang`,
  :mod:`repro.dtd`, :mod:`repro.constraints`;
- implication and finite implication of the basic constraint languages
  ``L``, ``L_u``, ``L_id`` (§3): :mod:`repro.implication`;
- path constraints and their implication (§4): :mod:`repro.paths`;
- the relational and object-database substrates the paper draws on,
  with semantics-preserving exports to XML: :mod:`repro.relational`,
  :mod:`repro.oodb`;
- the FO2 expressiveness argument (§1, Figure 1): :mod:`repro.fo2`;
- the paper's running examples and seeded workload generators:
  :mod:`repro.workloads`;
- static analysis of ``DTD^C`` schemas (the ``repro-xic lint``
  engine): :mod:`repro.analysis`;
- whole-schema satisfiability with witness-document synthesis (the
  ``repro-xic synth`` engine): :mod:`repro.synthesis`;
- pluggable validation backends behind the unified
  ``Validator.check(doc, engine=...)`` API, including the
  schema-specialized codegen engine: :mod:`repro.engines`,
  :mod:`repro.codegen`.

Quickstart::

    from repro import Validator, book_dtdc, book_document
    validator = Validator(book_dtdc())
    assert validator.validate(book_document()).ok

    registry = SchemaRegistry()              # the long-lived pivot:
    registry.load("book", "book.dtdc")       # compile once, serve hot,
    registry.get("book").validator()         # hot-swap via reload()

    session = validator.session(book_document())   # incremental
    assert session.revalidate().ok

    from repro import LuEngine, parse_constraint
    sigma = [parse_constraint(s) for s in (
        "tau.a -> tau", "tau.b -> tau", "tau.a sub tau.b")]
    engine = LuEngine(sigma)
    phi = parse_constraint("tau.b sub tau.a")
    assert not engine.implies(phi)          # Cor 3.3: not implied ...
    assert engine.finitely_implies(phi)     # ... but finitely implied.
"""

from repro._lazy import surface as _surface

__version__ = "1.5.0"

__all__ = [
    "AnalysisReport", "Diagnostic", "LintConfig", "Severity", "analyze",
    "Constraint", "Field", "ForeignKey", "IDConstraint", "IDForeignKey",
    "IDInverse", "IDSetValuedForeignKey", "Inverse", "Key", "Language",
    "SetValuedForeignKey", "UnaryForeignKey", "UnaryKey", "attr", "check",
    "check_constraint", "elem", "parse_constraint", "parse_constraints",
    "well_formed",
    "CorpusReport", "CorpusValidator", "ResultCache",
    "DataTree", "TreeBuilder", "Vertex",
    "DTDC", "DTDStructure", "ValidationReport", "validate",
    "ReproError",
    "Derivation", "ImplicationResult", "LGeneralEngine", "LidEngine",
    "LPrimaryEngine", "LuEngine", "LuPrimaryEngine",
    "Path", "PathFunctional", "PathImplicationEngine", "PathInclusion",
    "PathInverse", "parse_path", "type_of",
    "DocumentSession", "EventLog", "NULL_OBS", "Observability",
    "TraceContext", "Validator", "engines",
    "SchemaHandle", "SchemaRegistry", "ValidationServer",
    "Locality", "ShardReport", "ShardedCorpusValidator", "WatchSession",
    "SatReport", "UnsatCore", "Verdict", "check_satisfiability",
    "synthesize_witness",
    "book_document", "book_dtdc",
    "parse_document", "parse_dtd", "parse_dtdc", "serialize",
    "__version__",
]

#: The release that will drop the deprecated entry points below.
_REMOVAL_VERSION = "2.0"

#: Legacy top-level entry points: still public (they stay in
#: ``__all__``) and still working, but every access warns with the
#: Validator-facade replacement; the removal version makes the schedule
#: part of the contract.
_DEPRECATED = {
    name: (
        f"repro.{name} is deprecated and will be removed in repro "
        f"{_REMOVAL_VERSION}; use repro.{replacement} — or bind the "
        "schema once via repro.SchemaRegistry and use "
        "Validator.from_registry — instead (see the migration "
        "table in README.md)")
    for name, replacement in (
        ("validate", "Validator(dtd).validate(doc)"),
        ("check", "Validator(dtd).check(doc)"),
        ("check_constraint", "Validator(dtd).check(doc, [phi])"),
    )
}

# Every public name is imported on first access (see repro._lazy), so
# ``import repro`` loads nothing else and a CLI run or shard node pays
# only for what it validates with.
__getattr__, __dir__ = _surface(__name__, {
    "repro.analysis": (
        "AnalysisReport", "Diagnostic", "LintConfig", "Severity",
        "analyze"),
    "repro.constraints": (
        "Constraint", "Field", "ForeignKey", "IDConstraint",
        "IDForeignKey", "IDInverse", "IDSetValuedForeignKey", "Inverse",
        "Key", "Language", "SetValuedForeignKey", "UnaryForeignKey",
        "UnaryKey", "attr", "elem", "parse_constraint",
        "parse_constraints", "well_formed", "check", "check_constraint"),
    "repro.corpus": ("CorpusReport", "CorpusValidator", "ResultCache"),
    "repro.datamodel": ("DataTree", "TreeBuilder", "Vertex"),
    "repro.dtd": ("DTDC", "DTDStructure", "ValidationReport", "validate"),
    "repro.errors": ("ReproError",),
    "repro.implication": (
        "Derivation", "ImplicationResult", "LGeneralEngine", "LidEngine",
        "LPrimaryEngine", "LuEngine", "LuPrimaryEngine"),
    "repro.paths": (
        "Path", "PathFunctional", "PathImplicationEngine", "PathInclusion",
        "PathInverse", "parse_path", "type_of"),
    "repro.incremental": ("DocumentSession",),
    "repro.obs": ("NULL_OBS", "EventLog", "Observability", "TraceContext"),
    "repro.server": ("SchemaHandle", "SchemaRegistry", "ValidationServer"),
    "repro.shard": (
        "Locality", "ShardReport", "ShardedCorpusValidator",
        "WatchSession"),
    "repro.synthesis": (
        "SatReport", "UnsatCore", "Verdict", "check_satisfiability",
        "synthesize_witness"),
    "repro.validator": ("Validator",),
    "repro.workloads": ("book_document", "book_dtdc"),
    "repro.xmlio": ("parse_document", "parse_dtd", "parse_dtdc",
                    "serialize"),
}, submodules=("engines",), deprecated=_DEPRECATED)
