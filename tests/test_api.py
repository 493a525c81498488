"""The public API carries no dead names: every name a module exports in
``__all__`` is read somewhere in ``src/`` or ``bench/`` outside the
package ``__init__``, or is listed below with the reason it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# exported names that no program reads, each kept for a stated reason
ALLOWED = {
    "a_safe": "the safe point cap of acceptance criterion 8 (ROADMAP item 12)",
    "visiting_times": "the visiting-time record of the chain (ROADMAP item 2)",
    "surface_membership_Sprime": "the corner transversal S' (ROADMAP items 11, 13)",
    "surface_coordinates_1d": "the inverse of chart_lattice_1d",
    "read_csv": "the reader of write_csv's #config= format",
}


def _program_trees() -> list[ast.Module]:
    """The parsed program files of src/ and bench/, package __init__
    files excepted."""
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    return [ast.parse(p.read_text()) for p in paths if p.name != "__init__.py"]


def _exported(trees: list[ast.Module]) -> set[str]:
    """Every name listed in a module-level ``__all__``."""
    return {
        name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def _read_names(trees: list[ast.Module]) -> set[str]:
    """Every Name, Attribute, import alias and dotted string part."""
    names: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
                names.update(node.name.split("."))
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "." in node.value
            ):
                names.update(node.value.split("."))
    return names


def test_every_exported_name_is_read():
    trees = _program_trees()
    read = _read_names(trees)
    exported = _exported(trees)
    assert {"chain_walker", "surface_mc_2d", "write_json", "main"} <= exported
    assert sorted(exported - read - set(ALLOWED)) == []
    # an allowed name is exported, and still has no reader
    assert sorted(set(ALLOWED) - (exported - read)) == []
