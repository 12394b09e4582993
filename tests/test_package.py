"""The package namespace: `hadafrac.__all__` is what README.md documents."""

import os
import re
import subprocess
import sys
from pathlib import Path

import hadafrac
from hadafrac import (
    errors,
    expressions,
    fuzzing,
    gammafn,
    inequalities,
    jacobi,
    operators,
    randfuncs,
)

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_every_public_name_is_in_the_readme():
    missing = [name for name in hadafrac.__all__ if f"`{name}" not in README]
    assert not missing


def test_the_readme_lists_exactly_the_public_names():
    start = README.index("### Package-level names")
    section = README[start:README.index("\n#", start)]
    quoted = set(re.findall(r"`([A-Za-z_]\w*)", section))
    defined = set()
    for module in (errors, expressions, fuzzing, gammafn, inequalities, jacobi, operators,
                   randfuncs):
        defined |= {name for name in vars(module) if not name.startswith("_")}
    assert quoted & defined == set(hadafrac.__all__)


def test_importing_the_package_leaves_numpy_random_unloaded():
    """The generators are built on first draw: `numpy.random` costs set-up
    time and memory that a caller who draws nothing should not pay."""
    path = [str(Path(hadafrac.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hadafrac; print('numpy.random' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert proc.stdout == "False\n", proc.stderr
