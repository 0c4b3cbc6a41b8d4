"""Every name a library module imports is used in it.

Only the package's ``__init__`` imports names for others to use.  The check
reads each module's syntax tree with the standard library's ``ast``: an
imported name counts as used if it appears as a name anywhere in the module,
an annotation included, or as a word of a string annotation.
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


def test_library_modules_import_no_unused_name():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_an_orphaned_import_is_reported():
    source = "from .tensor import combine, permute_covariant\n\ncombine(1, [])\n"
    assert unused_imports(source) == ["permute_covariant"]
    assert unused_imports("import itertools\nimport os.path\nos.path.join()\n") == ["itertools"]
