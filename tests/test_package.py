"""Checks over the package as a whole: the README's library example runs,
and no module imports a name that it never uses."""

import ast
import re
from pathlib import Path

import countmatch

_PACKAGE = Path(countmatch.__file__).parent
_README = Path(__file__).resolve().parents[1] / "README.md"

#: Names a module imports without using them, each with the reason.
_KEPT_IMPORTS = {
    ("matching.py", "hungarian_solve"): "perfbench's tracer wraps matching.hungarian_solve",
}


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", _README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(_README), "exec"), {})
    assert capsys.readouterr().out


def test_each_imported_name_is_used():
    unused = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # A package re-exports what it imports by naming it in __all__.
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(elt.value for elt in node.value.elts)
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used and (path.name, name) not in _KEPT_IMPORTS]
    assert not unused, unused
