"""The package holds no test-only API: every public name of ``src/satqkd`` has a caller in the package."""

import ast
from pathlib import Path

import satqkd

PACKAGE = Path(satqkd.__file__).parent

# public names with no caller in the package, each kept for a reason of its own
LIBRARY_ONLY = (
    ("filter_transmission", "acceptance gate 6 checks a line's filter throughput against its numeric integral"),
)


def names_used(node: ast.AST) -> set:
    """Every name a node reads, imports or takes an attribute by."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def test_every_public_name_has_a_caller_in_the_package():
    modules = [ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    defined, used = [], set()
    for tree in modules:
        for node in tree.body:
            own = set()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # a definition that reads its own name, as a recursive call or a method that builds
                # its own class, is not its own caller
                own = {node.name}
                if not node.name.startswith("_"):
                    defined.append(node.name)
            used |= names_used(node) - own
    library_only = {name for name, _ in LIBRARY_ONLY}
    assert library_only <= set(defined), "LIBRARY_ONLY names a definition that is gone"
    uncalled = [name for name in defined if name not in used and name not in library_only]
    assert not uncalled, f"public names with no caller in the package: {uncalled}"
    assert not library_only & used, "a LIBRARY_ONLY name has a caller in the package now"
