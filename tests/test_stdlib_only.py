import ast
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rankgames"


def test_runtime_imports_only_the_standard_library():
    # the package is pure standard library at runtime; relative imports
    # stay inside it, every absolute one must be a stdlib module
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_no_module_reads_an_environment_variable():
    # what the package computes depends on its arguments only; randomized
    # checks seed their own random.Random
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        text = path.read_text(encoding="utf-8")
        for name in ("os.environ", "getenv"):
            assert name not in text, f"{path.name} mentions {name}"


def test_no_module_imports_a_name_it_never_reads():
    # a name imported and never read is debris of code that moved away;
    # ``__init__`` imports names to export them, so it is not checked
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
        unused = sorted(imported - read)
        assert not unused, f"{path.name} imports {unused} and never reads them"


def _private_defs(tree):
    """Module-level functions and methods of module-level classes whose
    names start with one underscore."""
    for node in tree.body:
        inner = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in inner:
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and d.name.startswith("_") and not d.name.startswith("__")):
                yield d


def _names(node) -> Counter:
    """How often each name is read under ``node``, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def test_every_private_function_is_named_elsewhere():
    # a private function or method that nothing else in the package names
    # is dead code its last caller left behind; a name read only inside
    # its own body does not count
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(PACKAGE.rglob("*.py"))]
    assert trees
    named = sum(map(_names, trees), Counter())
    dead = sorted(d.name for tree in trees for d in _private_defs(tree)
                  if named[d.name] == _names(d)[d.name])
    assert not dead, f"no other code in the package names {dead}"
