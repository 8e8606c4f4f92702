"""The package's structure, read from its source with `ast`.

Every intra-package import sits at module level, where the import graph
shows it, and that graph has no cycle: a module that needs another's code
imports it in one direction only. The CLI reads no spin cap: each cap is
checked by the library code that allocates what it bounds. An operator's
symmetry group is found in `spectral` alone, and `spectral` writes no dense
matrix: the dense form is the tests' oracle.
"""

import ast
import graphlib
import pathlib

import isingbridge

PACKAGE = pathlib.Path(isingbridge.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _package_imports(node) -> set[str]:
    """The package modules an import statement reads; `__init__` for a package name."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names if alias.name.split(".")[0] == "isingbridge"]
        return {name.partition(".")[2].split(".")[0] or "__init__" for name in names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level == 0:
        if node.module.split(".")[0] != "isingbridge":
            return set()
        base = node.module.partition(".")[2]
    else:
        base = node.module or ""
    if base:
        return {base.split(".")[0]}
    return {alias.name if alias.name in MODULES else "__init__" for alias in node.names}


def _imports(tree) -> tuple[set[str], list[tuple[str, str]]]:
    """(modules imported at module level, (function, module) for imports in a body)."""
    top, nested = set(), []

    def visit(node, function):
        if isinstance(node, FUNCTIONS):
            function = getattr(node, "name", "<lambda>")
        targets = _package_imports(node)
        if function is None:
            top.update(targets)
        else:
            nested.extend((function, target) for target in sorted(targets))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return top, nested


def test_no_function_body_imports_a_package_module():
    found = [f"{module}.{function} imports {target}"
             for module, tree in MODULES.items()
             for function, target in _imports(tree)[1]]
    assert found == []


def test_module_level_import_graph_has_no_cycle():
    graph = {module: _imports(tree)[0] for module, tree in MODULES.items()}
    assert "markov" in graph["spectral"]  # the reader sees module-level imports
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError naming the cycle


def _names(tree) -> set[str]:
    """Every name, attribute and imported name that a module mentions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_cli_reads_no_spin_cap():
    assert "_check_spins" in _names(MODULES["spins"])  # the reader sees the checks
    assert not {"_check_spins", "_SPIN_CAPS", "MAX_SPINS"} & _names(MODULES["cli"])


def test_symmetry_group_is_found_only_in_spectral():
    """An operator's symmetry group is decided in `spectral` alone: no other module names
    its shift test, rotation or group, and `reverse` reads its sector through the one
    routine that enumerates the blocks."""
    internals = {"_translation_invariant", "_rotated", "_group"}
    assert internals <= _names(MODULES["spectral"])
    assert [module for module, tree in MODULES.items()
            if internals & _names(tree)] == ["spectral"]
    assert "_symmetry_blocks" in _names(MODULES["reverse"])


def test_spectral_reaches_no_dense_matrix():
    """Every operator eigensolve, ground vector included, reads only the operator's
    symmetry blocks: `spectral` reads no `.dense` attribute."""
    assert "dense" in _names(MODULES["markov"])  # the reader sees `.matrix`'s call
    assert "dense" not in _names(MODULES["spectral"])
