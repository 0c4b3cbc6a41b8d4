"""Every name a library module imports is used in it, and every public
function a library module defines is read by library code.

Only the package's ``__init__`` imports names for others to use.  The checks
read each module's syntax tree with the standard library's ``ast``: an
imported name counts as used if it appears as a name anywhere in the module,
an annotation included, or as a word of a string annotation.  A public
module-level function counts as read if a name or attribute outside its own
definition, in any module of the package, names it, or if ``__init__``
exports it; docstrings and comments do not count.
"""

import ast
import re
from pathlib import Path

import natforms

PACKAGE = Path(natforms.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in the source that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= set(re.findall(r"[A-Za-z_]\w*", node.value)) & set(imported)
    return sorted(name for name in imported if name not in used)


def unread_functions(sources: dict[str, str]) -> list[str]:
    """The public module-level functions defined in the sources, keyed by
    module name, that no library code reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {
        node.name
        for module, tree in trees.items()
        if module != "__init__"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    read = set()
    for module, tree in trees.items():
        for statement in tree.body:
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias) and module == "__init__":
                    names.add(node.asname or node.name)
            # a function calling itself does not read it
            read |= names - {getattr(statement, "name", None)}
    return sorted(defined - read)


def test_library_modules_import_no_unused_name():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_public_function_has_a_library_reader():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert "__init__" in sources and len(sources) > 1
    assert unread_functions(sources) == []


def test_an_unread_function_is_reported():
    sources = {
        "__init__": "from .tensor import exported\n",
        "tensor": (
            "def exported():\n    pass\n\n"
            "def read():\n    pass\n\n"
            "def recursive(k):\n    'read() in a docstring'\n    return recursive(k - 1)\n\n"
            "def _private():\n    pass\n"
        ),
        "geometry": "from . import tensor\n\ndef caller():\n    return tensor.read()\n",
    }
    assert unread_functions(sources) == ["caller", "recursive"]


def test_an_orphaned_import_is_reported():
    source = "from .tensor import contract, tensor_product\n\ncontract(1, 1, 1)\n"
    assert unused_imports(source) == ["tensor_product"]
    assert unused_imports("import itertools\nimport os.path\nos.path.join()\n") == ["itertools"]
