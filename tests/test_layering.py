"""Import layering: the model packages never reach up into the planes
built on them.

The CPU model, kernel, views, defense schemes, ISV toolchain, scanner
and workloads form the simulated machine; the attack harness, the
evaluation, the serving engine and the experiment engine drive it.  An
import from a model package up into one of those planes -- even a
function-local one -- turns the plane into a hidden dependency of the
machine and invites import cycles.  ``repro.obs`` and ``repro.reliability.faultplane`` are
cross-cutting planes every layer may call into.

The same holds one level up: the experiment engine (``repro.exec``)
calls the grid cells, so the modules that define cells never call the
engine.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

MODEL_PACKAGES = ("core", "cpu", "kernel", "defenses", "analysis",
                  "scanner", "workloads")

#: Packages the model packages must not import.
UPPER_PLANES = ("repro.attacks", "repro.eval", "repro.serve", "repro.exec")


def _imports(path: Path) -> list[tuple[int, str]]:
    """Every module ``path`` imports, at any nesting depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            found.append((node.lineno, node.module))
    return found


@pytest.mark.parametrize("package", MODEL_PACKAGES)
def test_model_package_does_not_import_upper_planes(package):
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {module}"
        for path in sorted((SRC / package).rglob("*.py"))
        for line, module in _imports(path)
        if any(module == plane or module.startswith(plane + ".")
               for plane in UPPER_PLANES)]
    assert not offenders, "\n".join(offenders)


#: The modules that define the cells of :mod:`repro.exec.grids`.
CELL_MODULES = (
    *sorted((SRC / "attacks").rglob("*.py")),
    *(SRC / "eval" / f"{name}.py"
      for name in ("envs", "runner", "sensitivity", "sweeps")),
    *(SRC / "serve" / f"{name}.py"
      for name in ("engine", "shard", "campaign")),
)


def test_cell_modules_do_not_import_the_engine():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {module}"
        for path in CELL_MODULES
        for line, module in _imports(path)
        if module == "repro.exec" or module.startswith("repro.exec.")]
    assert not offenders, "\n".join(offenders)
