"""Static guards over the package sources, by the standard library's ast: no dead
code, and a flooding route that reads nothing of the other routes."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dynpers"
MODULES = sorted(SRC.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def loaded_names(tree) -> set:
    """Every name the module reads, as a bare name or as an attribute, plus
    the names its ``__all__`` exports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_the_package_is_scanned():
    assert {"grid.py", "pairing.py", "pathdyn.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    used = loaded_names(tree)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    assert [name for name in imported if name not in used] == []


def test_every_private_definition_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    private = {
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    used = set().union(*map(loaded_names, trees.values()))
    for tree in trees.values():  # a name imported from a sibling module is referenced there
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    assert sorted(f"{m}:{name}" for m, name in private if name not in used) == []


FLOOD = ("_lower_rows", "_dynamics_columns")
# grid's spanning-forest helpers (the box minima themselves are a grid stencil the flood
# may read, but not the forests' thinning of the edges by them), the merge tree, and the
# caches of the basins and the oracle
OTHER_ROUTES = {
    "_least_key", "_descent", "_descent_basins", "_cut_edges", "_candidate_edges", "_boruvka",
    "_replay", "_kruskal", "_jump", "build_merge_tree", "_persistence_columns", "_basin_cache",
    "_oracle_cache", "pathdyn",
}


def test_the_flood_reads_nothing_of_the_other_routes():
    # the flooding route is the independent check of the merge tree and the oracle
    pathdyn = parse(SRC / "pathdyn.py")
    defined = {node.name for node in pathdyn.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in pathdyn.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    funcs = {node.name: node for node in parse(SRC / "pairing.py").body
             if isinstance(node, ast.FunctionDef) and node.name in FLOOD}
    assert sorted(funcs) == sorted(FLOOD)
    for name, node in funcs.items():
        assert sorted(loaded_names(node) & (OTHER_ROUTES | defined)) == [], name
