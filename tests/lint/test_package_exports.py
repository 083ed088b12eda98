"""One import path per name: what each package ``__init__`` may re-export.

A package ``__init__`` re-exports a name only if some other file imports
it through the package (``from repro.pkg import name``, an attribute
``repro.pkg.name``, or a dotted ``"repro.pkg.name"`` string such as a
patch target).  Anything else is a second path to a name its defining
module already exports.  ``repro`` itself re-exports nothing, so
``import repro.errors`` loads two modules, not the whole tree, and no
package attribute may hide a submodule of the same name (a function
bound over ``repro.core.position_cache`` made that path unpatchable).

The scan is pure AST over every ``.py`` file in ``src``, ``tests``,
``bench``, ``benchmarks`` and ``examples``; ``__init__`` files are not
counted as users.  Code held in a string (a script a test runs in a
fresh interpreter) is parsed and scanned too.  The Python samples in
``README.md`` and ``docs/`` are not users, but every name they import
must exist.
"""

from __future__ import annotations

import ast
import importlib
import re
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SCANNED = ("src", "tests", "bench", "benchmarks", "examples")
DOTTED = re.compile(r"repro(\.\w+)+")
FENCED = re.compile(r"```python\n(.*?)```", re.S)
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

PACKAGES: Dict[str, Path] = {
    ".".join(init.parent.relative_to(SRC).parts): init
    for init in sorted(SRC.glob("repro/**/__init__.py"))
}
MODULES = set(PACKAGES) | {
    ".".join(path.relative_to(SRC).with_suffix("").parts)
    for path in SRC.glob("repro/**/*.py")
}


def reexports(package: str) -> Dict[str, str]:
    """Every name the package's ``__init__`` imports from ``repro.*``,
    mapped to the module it comes from."""
    tree = ast.parse(PACKAGES[package].read_text())
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and node.module is not None
        and node.module.split(".")[0] == "repro"
        for alias in node.names
    }


def dotted_references(tree: ast.AST) -> Iterator[str]:
    """Yield each ``a.b.c`` path a module names: ``from`` imports,
    attribute chains through imported names, and dotted strings."""
    bound: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    bound[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                path = f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = path
                yield path
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts: List[str] = []
            inner: ast.expr = node
            while isinstance(inner, ast.Attribute):
                parts.append(inner.attr)
                inner = inner.value
            if isinstance(inner, ast.Name) and inner.id in bound:
                yield ".".join([bound[inner.id], *reversed(parts)])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
            if DOTTED.fullmatch(text):
                yield text
            elif "import" in text and "repro" in text:
                try:
                    yield from dotted_references(ast.parse(textwrap.dedent(text)))
                except SyntaxError:
                    pass


def uses_through_packages() -> Set[Tuple[str, str]]:
    """``(package, name)`` for every name reached through a package."""
    used: Set[Tuple[str, str]] = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for reference in dotted_references(ast.parse(path.read_text())):
                parts = reference.split(".")
                for cut in range(1, len(parts)):
                    package, path = ".".join(parts[:cut]), ".".join(parts[: cut + 1])
                    if package in PACKAGES and path not in MODULES:
                        used.add((package, parts[cut]))
    return used


def test_every_reexport_is_imported_through_its_package():
    used = uses_through_packages()
    unused = sorted(
        f"{package}.{name} (from {module})"
        for package in PACKAGES
        for name, module in reexports(package).items()
        if (package, name) not in used
    )
    assert not unused, "re-exported but never imported through the package:\n" + (
        "\n".join(unused)
    )


def test_root_package_imports_nothing_from_repro():
    modules: List[str] = []
    for node in ast.walk(ast.parse(PACKAGES["repro"].read_text())):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert not [m for m in modules if m.split(".")[0] in ("", "repro")]


def test_no_attribute_shadows_a_submodule():
    shadowing = sorted(
        f"{package}.{name} (from {module})"
        for package in PACKAGES
        for name, module in reexports(package).items()
        if f"{package}.{name}" in MODULES and module != package
    )
    assert not shadowing, "package attribute hides the submodule:\n" + (
        "\n".join(shadowing)
    )


def test_position_cache_path_is_the_module():
    import repro.core

    module = importlib.import_module("repro.core.position_cache")
    assert module is repro.core.position_cache


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_all_lists_every_reexport_and_resolves(package):
    module = importlib.import_module(package)
    exported = list(getattr(module, "__all__", ()))
    assert set(reexports(package)) <= set(exported)
    for name in exported:
        assert getattr(module, name) is not None, f"{package}.{name} missing"


def test_doc_samples_import_names_that_exist():
    missing = []
    for doc in DOCS:
        for block in FENCED.findall(doc.read_text()):
            for node in ast.walk(ast.parse(block)):
                if isinstance(node, ast.ImportFrom) and node.module in MODULES:
                    module = importlib.import_module(node.module)
                    missing += [
                        f"{doc.name}: from {node.module} import {alias.name}"
                        for alias in node.names
                        if not hasattr(module, alias.name)
                    ]
    assert not missing
