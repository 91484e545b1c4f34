import ast
import os
import subprocess
import sys
from pathlib import Path

import h3orbifold

SRC = Path(h3orbifold.__file__).parent


def test_every_import_is_at_module_level():
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        top = set(map(id, tree.body))
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and id(node) not in top]
    assert nested == []


def test_the_cli_imports_no_dataclasses_machinery():
    """Records are NamedTuples, so a start-up loads no ``dataclasses`` and
    with it no ``inspect``."""
    code = ("import sys, h3orbifold.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
