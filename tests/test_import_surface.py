"""The lazy package surface: what a cold process imports.

``import repro`` and the re-exporting subpackages resolve their public
names on first access (:mod:`repro._lazy`), so a one-shot CLI run or a
``serve --stdio`` shard node imports only the modules it validates
with.  These tests pin module *sets*, not times: each cold run happens
in a fresh interpreter under ``-X importtime``, whose report names
every module the process imported.
"""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import repro

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(repro.__file__).resolve().parents[1])

#: Subpackages no validation path needs: the §3/§4 deciders, the
#: relational/object substrates, FO2, workloads, lint and synthesis.
NOT_FOR_VALIDATION = tuple(f"repro.{name}" for name in (
    "analysis", "synthesis", "implication", "paths", "relational", "oodb",
    "fo2", "workloads", "transform"))

_IMPORTED = re.compile(r"import time:\s+\d+ \|\s+\d+ \|\s*(\S+)")


def _cold(args, stdin=None):
    """Run ``python -X importtime ARGS`` in a fresh interpreter;
    returns the finished process and the set of modules it imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in (env.get("PYTHONPATH"),) if p])
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], input=stdin,
        capture_output=True, text=True, env=env, timeout=120)
    modules = set(_IMPORTED.findall(proc.stderr))
    return proc, modules


def _under(modules, prefixes):
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))


class TestColdImports:
    def test_import_repro_loads_only_the_package(self):
        proc, modules = _cold(["-c", "import repro"])
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert _under(modules, ["repro"]) == ["repro", "repro._lazy"]

    def test_cli_validate_skips_what_it_does_not_use(self):
        proc, modules = _cold([
            "-m", "repro", "-q", "validate", "--engine", "auto",
            str(FIXTURES / "book.xml"), str(FIXTURES / "book.dtdc")])
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "repro.dtd.validate" in modules   # the probe works
        unwanted = NOT_FOR_VALIDATION + (
            "repro.shard", "repro.corpus.validator", "repro.server.daemon",
            "asyncio")
        assert _under(modules, unwanted) == []

    def test_shard_node_skips_what_it_does_not_use(self):
        schema = (FIXTURES / "book.dtdc").read_text()
        document = (FIXTURES / "book.xml").read_text()
        requests = [
            {"op": "ping", "id": 1},
            {"op": "load", "name": "book", "schema": schema,
             "root": "book", "id": 2},
            {"op": "check-shard", "schema": "book", "aggregates": True,
             "documents": [["d0", document]], "id": 3},
        ]
        proc, modules = _cold(
            ["-m", "repro", "-q", "serve", "--stdio"],
            stdin="".join(json.dumps(r) + "\n" for r in requests))
        assert proc.returncode == 0, proc.stderr[-2000:]
        replies = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [(r["id"], r["ok"]) for r in replies] == \
            [(1, True), (2, True), (3, True)]
        assert "repro.server.daemon" in modules   # the probe works
        assert _under(modules, NOT_FOR_VALIDATION) == []


def _lazy_tables():
    """Import every module of the package, then return the lazy tables
    (package -> {name: (module, is_module)}) the import registered."""
    import importlib
    import pkgutil

    from repro import _lazy

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    return _lazy.SURFACES


class TestLazyTables:
    def test_every_name_is_its_defining_object(self):
        """After every submodule is imported — so the import system has
        bound each one on its package — every public name still
        resolves to the object its defining submodule holds."""
        tables = _lazy_tables()
        assert {"repro", "repro.constraints", "repro.dtd", "repro.corpus",
                "repro.codegen", "repro.stream", "repro.xmlio",
                "repro.datamodel", "repro.server"} <= set(tables)
        for package, table in tables.items():
            module = sys.modules[package]
            for name, (where, is_module) in table.items():
                defining = sys.modules[where]
                expected = defining if is_module \
                    else getattr(defining, name)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    assert getattr(module, name) is expected, \
                        f"{package}.{name}"

    def test_every_all_name_resolves(self):
        for package in _lazy_tables():
            module = sys.modules[package]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                for name in module.__all__:
                    getattr(module, name)
            assert set(module.__all__) <= set(dir(module)), package

    def test_validate_stays_the_function_after_its_module_loads(self):
        proc, _modules = _cold(["-c", (
            "import sys, repro.dtd.validate\n"
            "from repro.dtd import validate\n"
            "assert validate is sys.modules['repro.dtd.validate'].validate\n"
            "assert callable(validate)\n")])
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_dir_covers_all(self):
        assert set(repro.__all__) <= set(dir(repro))
