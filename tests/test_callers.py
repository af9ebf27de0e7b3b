"""Every public engine name must have a caller.

The package ships only what a run, the CLI, the benchmark's tracer or a
test oracle uses.  This test parses ``src/advreplay`` and requires each
public module-level function and class to be referenced by engine code
(names in docstrings and comments do not count, nor does a definition's
reference to itself), named in ``perfbench/tracing.LAYERS``, or listed
below with the reason it is kept.  Exporting a name in ``__all__`` does not
count as a call.
"""

import ast
from pathlib import Path

from test_trace_layers import load_tracing

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "advreplay"

KEPT = {
    # the taped definitions the fused and plain kernels are tested against
    "train.local_ce_loss": "oracle of train.loss_and_grads",
    "train.local_kd_loss": "oracle of train.loss_and_grads",
    "calib.lstsq_transfer_oracle": "oracle of calib.fit_transfer_matrix",
    # writers of the formats the engine ingests
    "data.save_csv": "writes what data.load_csv reads",
    "data.save_binary": "writes what data.load_binary reads",
    "model.load_checkpoint": "reads what model.save_checkpoint writes; resumable runs need it",
}


def public_definitions(tree, module):
    return {f"{module}.{node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def references(tree, module):
    """Qualified ``module.name`` references in one module's code."""
    aliases = {}  # local name -> qualified engine name or engine module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = alias.name if node.module is None \
                    else f"{node.module}.{alias.name}"
    own = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    found = set()
    for top in tree.body:
        inside = f"{module}.{top.name}" if isinstance(
            top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = aliases.get(node.value.id)
                name = f"{target}.{node.attr}" if target and "." not in target else None
            elif isinstance(node, ast.Name):
                name = aliases.get(node.id) or (
                    f"{module}.{node.id}" if node.id in own else None)
            else:
                continue
            if name is not None and name != inside:
                found.add(name)
    return found


def test_every_public_engine_name_has_a_caller():
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= public_definitions(tree, path.stem)
        used |= references(tree, path.stem)
    used |= {".".join(layer.split(".")[:2]) for layer in load_tracing().LAYERS}
    stale = sorted(name for name in KEPT if name not in defined or name in used)
    assert not stale, f"allowlisted names that are gone or now have a caller: {stale}"
    uncalled = sorted(defined - used - set(KEPT))
    assert not uncalled, f"public engine names nothing calls: {uncalled}"
