"""The package holds no test-only API: every public name and every public class member of
``src/satqkd`` has a caller in the package."""

import ast
from collections import Counter
from pathlib import Path

import satqkd

PACKAGE = Path(satqkd.__file__).parent

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


def package_modules() -> list:
    """The syntax trees of the package's modules, __init__.py left out: it only re-exports."""
    return [ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]


def attributes_read(node: ast.AST) -> Counter:
    """How often a node reads each attribute name, as obj.name."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_public_name_has_a_caller_in_the_package():
    modules = package_modules()
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
    uncalled = [name for name in defined if name not in used]
    assert not uncalled, f"public names with no caller in the package: {uncalled}"


def test_every_public_member_is_read_by_the_package():
    # a public method or property (classmethods and staticmethods too) that package code never
    # reads as an attribute, outside its own body, serves only the tests
    modules = package_modules()
    reads = sum((attributes_read(tree) for tree in modules), Counter())
    unread = [
        f"{cls.name}.{member.name}"
        for tree in modules
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
        and reads[member.name] == attributes_read(member)[member.name]
    ]
    assert not unread, f"public class members that no package code reads: {unread}"


def builds_dataclasses(tree: ast.AST) -> bool:
    """Whether a module imports dataclass or make_dataclass from dataclasses, or reads either off the module."""
    builders = {"dataclass", "make_dataclass"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            if any(alias.name in builders for alias in node.names):
                return True
        elif (isinstance(node, ast.Attribute) and node.attr in builders
              and isinstance(node.value, ast.Name) and node.value.id == "dataclasses"):
            return True
    return False


def test_only_record_builds_dataclasses():
    # every class of the package is built one way: by satqkd.record, the one caller of dataclasses.dataclass
    builders = [path.name for path in sorted(PACKAGE.glob("*.py")) if builds_dataclasses(ast.parse(path.read_text()))]
    assert builders == ["record.py"]


def imports_yaml(tree: ast.AST) -> bool:
    """Whether a module imports yaml or one of its modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "yaml" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "yaml":
            return True
    return False


def test_only_config_imports_yaml():
    # how a config file is read is decided in one module, satqkd.config
    importers = [path.name for path in sorted(PACKAGE.glob("*.py")) if imports_yaml(ast.parse(path.read_text()))]
    assert importers == ["config.py"]
