import ast
import sys
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
