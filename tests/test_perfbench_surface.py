"""The library names that the benchmark under perfbench/ reads.

perfbench/tests looks some of them up through a helper that skips a test
when its name is gone, so a removal there would switch oracle checks off
instead of failing them.  This test fails instead.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = "selberg_gas"


def _module_aliases(tree) -> dict:
    # local name -> module, from `from selberg_gas import x [as y]`
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == PACKAGE:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{PACKAGE}.{alias.name}"
    return aliases


def _module_of(node, aliases):
    # `averages` and `self.cli` both name a module by its local alias
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return aliases.get(node.attr) if node.value.id == "self" else None
    return None


def names_read(source: str) -> set:
    """(module, attribute) pairs that one perfbench file reads from the
    library: names imported from a submodule, attribute reads on an
    imported submodule, and `library(module, "name")` lookups."""
    tree = ast.parse(source)
    aliases = _module_aliases(tree)
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.startswith(PACKAGE + ".")):
            found.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            module = _module_of(node.value, aliases)
            if module is not None:
                found.add((module, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "library" and len(node.args) == 2
              and isinstance(node.args[1], ast.Constant)):
            module = _module_of(node.args[0], aliases)
            if module is not None:
                found.add((module, node.args[1].value))
    return found


def perfbench_names() -> set:
    found = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        found |= names_read(path.read_text())
    return found


def test_collector_sees_the_pinned_names():
    found = perfbench_names()
    for name in ("average_even_power_heine", "density_matrix_bruteforce",
                 "average_product_bruteforce", "ChargeConfig", "sample_jue_halfhalf"):
        assert (f"{PACKAGE}.averages", name) in found
    assert (f"{PACKAGE}.ensembles", "sample_jue_halfhalf") in found
    assert (f"{PACKAGE}.fisherhartwig", "toeplitz_determinant") in found
    assert (f"{PACKAGE}.cli", "main") in found
    assert (f"{PACKAGE}.exact", "EnsembleParams") in found


def test_every_name_perfbench_reads_exists():
    missing = sorted(f"{module}.{name}" for module, name in perfbench_names()
                     if not hasattr(importlib.import_module(module), name))
    assert missing == [], f"perfbench reads names the library no longer has: {missing}"
