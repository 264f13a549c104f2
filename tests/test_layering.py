"""The layering lint: clean on the real tree, loud on a violation."""

import ast
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_layering.py"


def run_lint(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, cwd=REPO)


def test_real_tree_is_clean():
    proc = run_lint()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "layering: OK" in proc.stdout
    for package in ("sim", "net", "obs", "host", "transport",
                    "workload", "core", "analysis", "cli", "scenarios"):
        assert package in proc.stdout


def make_fake_tree(tmp_path):
    """A minimal repro tree with every package the lint requires."""
    pkg = tmp_path / "repro"
    for sub in ("sim", "net", "obs", "host", "transport", "workload",
                "core", "analysis", "cli", "scenarios"):
        (pkg / sub).mkdir(parents=True)
        (pkg / sub / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    return pkg


def test_timer_wheel_is_layer_zero_leaf():
    """``repro.sim.wheel`` is the bottom of the dependency graph: the
    lint covers it as part of the sim layer (layer 0, no upward
    imports), and — stricter than the layer rule — it must not import
    any ``repro`` module at all, so the engine hot path it serves never
    grows hidden dependencies."""
    path = REPO / "src" / "repro" / "sim" / "wheel.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    repro_imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            repro_imports += [a.name for a in node.names
                              if a.name.split(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "repro":
                repro_imports.append(node.module)
    assert repro_imports == [], (
        f"sim/wheel.py must stay a leaf module, imports {repro_imports}")


def test_fluid_solver_is_pinned_to_the_kernel_layer():
    """``repro.sim.fluid`` is the second engine fidelity and sits in
    the simulation kernel (layer 0): the lint forbids it from
    importing host/transport/workload — whose physics it mirrors in
    closed form — and, stricter, its only module-level ``repro``
    imports must be the pinned layer-0 kernel modules (config /
    calibration / metrics) or ``repro.sim`` neighbours."""
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        from check_layering import KERNEL_MODULES, layer_of
    finally:
        sys.path.pop(0)
    assert layer_of("repro.sim.fluid") == 0
    path = REPO / "src" / "repro" / "sim" / "fluid.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets = [node.module]
        for target in targets:
            if target.split(".")[0] != "repro":
                continue
            assert (target in KERNEL_MODULES
                    or any(target.startswith(k + ".")
                           for k in KERNEL_MODULES)
                    or target.startswith("repro.sim")), (
                f"sim/fluid.py may only import kernel modules, "
                f"imports {target}")


def test_batched_fluid_solver_is_pinned_to_the_kernel_layer():
    """``repro.sim.fluid_batch`` is the vectorized form of the fluid
    solver and sits beside it at layer 0: cohort grouping and fleet
    policy belong to ``workload`` (which imports *down* into it), so
    the batch module itself may only see the pinned kernel modules
    and its ``repro.sim`` neighbours — exactly the rule that keeps
    the scalar solver a leaf."""
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        from check_layering import KERNEL_MODULES, layer_of
    finally:
        sys.path.pop(0)
    assert layer_of("repro.sim.fluid_batch") == 0
    path = REPO / "src" / "repro" / "sim" / "fluid_batch.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets = [node.module]
        for target in targets:
            if target.split(".")[0] != "repro":
                continue
            assert (target in KERNEL_MODULES
                    or any(target.startswith(k + ".")
                           for k in KERNEL_MODULES)
                    or target.startswith("repro.sim")), (
                f"sim/fluid_batch.py may only import kernel modules, "
                f"imports {target}")


def test_routing_is_pinned_to_the_kernel_layer():
    """``repro.net.routing`` is the shared path-hash: the packet
    fabric selects ports with it and the fluid profile replays the
    same assignments, so it is pinned at layer 0 where both engines
    can see it.  Stricter than the layer rule, it must not import any
    ``repro`` module at all — a leaf, like ``sim.wheel`` — so the two
    fidelities can never diverge through a hidden dependency."""
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        from check_layering import KERNEL_MODULES, layer_of
    finally:
        sys.path.pop(0)
    assert "repro.net.routing" in KERNEL_MODULES
    assert layer_of("repro.net.routing") == 0
    path = REPO / "src" / "repro" / "net" / "routing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    repro_imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            repro_imports += [a.name for a in node.names
                              if a.name.split(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "repro":
                repro_imports.append(node.module)
    assert repro_imports == [], (
        f"net/routing.py must stay a leaf module, "
        f"imports {repro_imports}")


def test_fabric_plan_is_a_kernel_leaf():
    """``repro.net.plan`` is the one fabric description both
    fidelities read: the packet fabric instantiates it and the fluid
    profile walks it, so it is pinned at layer 0 beside the routing
    hash.  Stricter than the layer rule, its only ``repro`` import is
    the pure-data config — a leaf, like ``sim.wheel`` — so the plan
    can never pick up a dependency that one fidelity sees and the
    other does not."""
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        from check_layering import KERNEL_MODULES, layer_of
    finally:
        sys.path.pop(0)
    assert "repro.net.plan" in KERNEL_MODULES
    assert layer_of("repro.net.plan") == 0
    path = REPO / "src" / "repro" / "net" / "plan.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    repro_imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            repro_imports += [a.name for a in node.names
                              if a.name.split(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "repro":
                repro_imports.append(node.module)
    assert repro_imports == ["repro.core.config"], (
        f"net/plan.py may import only repro.core.config, "
        f"imports {repro_imports}")


def test_upward_import_is_flagged(tmp_path):
    # A fake repro tree where the bottom layer imports a higher one.
    pkg = make_fake_tree(tmp_path)
    (pkg / "sim" / "engine.py").write_text("import repro.host.nic\n")
    proc = run_lint("--root", str(tmp_path))
    assert proc.returncode == 1
    assert "repro.sim.engine (layer 0) imports repro.host.nic (layer 2)" \
        in proc.stdout


def test_function_scope_import_is_exempt(tmp_path):
    pkg = make_fake_tree(tmp_path)
    (pkg / "sim" / "engine.py").write_text(
        "def lazy():\n    import repro.cli\n")
    proc = run_lint("--root", str(tmp_path))
    assert proc.returncode == 0, proc.stdout


def test_kernel_modules_importable_from_layer_zero(tmp_path):
    pkg = make_fake_tree(tmp_path)
    (pkg / "sim" / "engine.py").write_text(
        "from repro.core.config import ExperimentConfig\n"
        "from repro.core import calibration\n")
    proc = run_lint("--root", str(tmp_path))
    assert proc.returncode == 0, proc.stdout


def test_data_package_may_not_import_anything(tmp_path):
    """Any import in repro.scenarios — even a lazy or layer-legal one —
    is a violation: specs are data, not code."""
    pkg = make_fake_tree(tmp_path)
    (pkg / "scenarios" / "helpers.py").write_text(
        "def lazy():\n    import json\n")
    proc = run_lint("--root", str(tmp_path))
    assert proc.returncode == 1
    assert "data package repro.scenarios" in proc.stdout
    assert "may not import anything" in proc.stdout


def test_missing_required_package_is_flagged(tmp_path):
    pkg = make_fake_tree(tmp_path)
    for child in (pkg / "scenarios").iterdir():
        child.unlink()
    (pkg / "scenarios").rmdir()
    proc = run_lint("--root", str(tmp_path))
    assert proc.returncode == 1
    assert "scenarios" in proc.stdout
