#!/usr/bin/env python3
"""Layered-architecture lint: fail when a lower layer imports a higher one.

The dependency rule (DESIGN.md, "Architecture: components and topology"):

    sim -> net/obs -> host -> transport -> workload -> core -> analysis -> cli

Each package may import its own layer and anything below it.  Three
``repro.core`` modules are *kernel* modules — pure-data config,
calibration constants, and the statistics helpers — pinned to layer 0
so every layer can import them without dragging in the experiment
machinery.  Two ``repro.net`` modules join them — the routing hash and
the fabric plan — so both fidelities route over one description of
the fabric.  The engine fidelities (``repro.sim.engine``,
``repro.sim.fluid``, and the vectorized ``repro.sim.fluid_batch``)
all live in ``sim`` and therefore sit at layer 0 themselves: their
only legal ``repro`` imports are kernel modules and ``sim``
neighbours (tests/test_layering.py pins each one by AST walk).

Only module-level imports count: a function-scope import is a
deliberate lazy edge (e.g. ``repro.workload.fleet`` pulling in the
parallel runner at call time) and is exempt.

Usage: ``python scripts/check_layering.py [--root src]`` where the root
directory contains the ``repro`` package.  Exits 0 when clean, 1 with
one line per violation.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: Layer number per first-level package under ``repro``.
LAYERS: Dict[str, int] = {
    "sim": 0,
    "net": 1,
    "obs": 1,
    "host": 2,
    "transport": 3,
    "workload": 4,
    "core": 5,
    "analysis": 6,
    "cli": 7,
}

#: Top-level repro modules (the package facade and entry point) sit on
#: the highest layer: anything may NOT import them, they import all.
TOP_MODULES = {"__init__", "__main__"}
TOP_LAYER = 7

#: Modules pinned to layer 0: pure data/constants/statistics with no
#: dependency on (or from) the experiment machinery.  ``net.routing``
#: and ``net.plan`` live here so both the packet fabric (layer 1) and
#: the fluid solver (layer 0's sim package) share one deterministic
#: path-hash and one fabric plan.
KERNEL_MODULES = {
    "repro.core.config",
    "repro.core.calibration",
    "repro.core.metrics",
    "repro.net.routing",
    "repro.net.plan",
}

#: Pure-data packages: bundled scenario specs and the like.  Their
#: ``.py`` files (package docstrings only) may not import anything at
#: all — a spec package that grows code stops being declarative data.
DATA_PACKAGES = {"scenarios"}

#: Packages the lint must observe for a clean run to count (guards
#: against the contract silently rotting when packages move).
REQUIRED_PACKAGES = frozenset(LAYERS) | DATA_PACKAGES


def module_name(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to ``root``."""
    rel = path.relative_to(root).with_suffix("")
    return ".".join(rel.parts)


def layer_of(module: str) -> Optional[int]:
    """Layer of a dotted ``repro...`` module; None for foreign modules."""
    if module in KERNEL_MODULES or any(
            module.startswith(kernel + ".") for kernel in KERNEL_MODULES):
        return 0
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return TOP_LAYER
    if parts[1] in TOP_MODULES:
        return TOP_LAYER
    return LAYERS.get(parts[1])


def module_level_imports(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """(lineno, dotted-target) for every module-level import.

    Walks into classes and ``if``/``try`` blocks (still import time)
    but not into function bodies (lazy imports are exempt).
    """
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                # Qualify per alias so `from repro.core import
                # calibration` resolves to the kernel module, not to
                # the repro.core package.
                for alias in node.names:
                    yield node.lineno, f"{node.module}.{alias.name}"
        else:
            for child in ast.iter_child_nodes(node):
                stack.append(child)


def check(root: Path) -> List[str]:
    """All layering violations under ``root``, formatted one per line."""
    violations: List[str] = []
    seen_packages = set()
    package_root = root / "repro"
    if not package_root.is_dir():
        return [f"no 'repro' package under {root}"]
    for path in sorted(package_root.rglob("*.py")):
        module = module_name(path, root)
        parts = module.split(".")
        if len(parts) > 1 and parts[1] in DATA_PACKAGES:
            seen_packages.add(parts[1])
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    violations.append(
                        f"{path}:{node.lineno}: {module} is in the "
                        f"data package repro.{parts[1]} and may not "
                        f"import anything (specs are data, not code)")
            continue
        importer_layer = layer_of(module)
        if importer_layer is None:
            continue
        if len(parts) > 1 and parts[1] in LAYERS:
            seen_packages.add(parts[1])
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, target in module_level_imports(tree):
            target_layer = layer_of(target)
            if target_layer is None:
                continue
            if target_layer > importer_layer:
                violations.append(
                    f"{path}:{lineno}: {module} (layer {importer_layer}) "
                    f"imports {target} (layer {target_layer})")
    missing = REQUIRED_PACKAGES - seen_packages
    if missing:
        violations.append(
            f"{root}: expected packages not found: {sorted(missing)} "
            f"(contract must cover all of {sorted(REQUIRED_PACKAGES)})")
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default="src",
        help="directory containing the 'repro' package (default src)")
    args = parser.parse_args(argv)
    violations = check(Path(args.root))
    if violations:
        print(f"layering: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  {violation}")
        return 1
    covered = ", ".join(sorted(set(LAYERS) | DATA_PACKAGES))
    print(f"layering: OK ({covered} clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
