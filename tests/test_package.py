"""The package namespace: `hadafrac.__all__` is what README.md documents."""

import re
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
