"""Schema-specialized validator codegen.

Compiles a ``DTD^C`` all the way to Python source — per-label DFA
transitions inlined as dict literals, constraint bookkeeping specialized
to the attributes Σ actually watches, Σ-irrelevant element runs consumed
by single regex matches — ``exec``'d once per schema fingerprint per
process and cached on disk so server restarts and corpus worker fleets
compile once per machine.  Reports are byte-identical (``to_json()``)
to the batch and streaming validators; see
:mod:`repro.codegen.generate` for the determinism contract and
:mod:`repro.codegen.cache` for the integrity-checked source cache.

Select it through the unified engine API::

    validator.check("doc.xml", engine="codegen")   # or engine="auto"
"""

from repro._lazy import surface as _surface

__all__ = [
    "CACHE_ENV",
    "CodegenValidator",
    "CompileError",
    "CompiledSchema",
    "GENERATOR_VERSION",
    "RunState",
    "cache_dir",
    "cache_path",
    "compile_schema",
    "generate_source",
    "load_compiled",
    "load_source",
    "store_source",
]

__getattr__, __dir__ = _surface(__name__, {
    "repro.codegen.cache": (
        "CACHE_ENV", "cache_dir", "cache_path", "load_source",
        "store_source"),
    "repro.codegen.engine": (
        "CodegenValidator", "CompiledSchema", "compile_schema",
        "load_compiled"),
    "repro.codegen.generate": (
        "GENERATOR_VERSION", "CompileError", "generate_source"),
    "repro.codegen.runtime": ("RunState",),
})
