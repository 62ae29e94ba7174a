"""Every name a module of the package exports resolves."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import ncfem

MODULES = sorted(m.name for m in pkgutil.iter_modules(ncfem.__path__, "ncfem."))


def test_modules_are_found():
    assert "ncfem.fespace" in MODULES and "ncfem.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which it does not define"


# public definitions no command reaches, kept as the library half of a
# concept a user meets; each with the reason
LIBRARY_ONLY = {
    "mesh.save_mesh": "writes the mesh-file format that --mesh <file> reads",
    "assembly.preprocess_data": "the paper's data shift (G, g) -> (G - Q, g + div_m Q)",
    "fespace.load_function": "reads the file that solve --solution writes",
    "estimator.efficiency_terms": "the paper's efficiency comparison, shown by demo 04",
}


def _src_trees():
    src = pathlib.Path(ncfem.__file__).parent
    return {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}


def test_every_public_definition_is_referenced_in_src():
    # a public top-level function or class that nothing in src/ names is
    # reached by tests alone: delete it, or list it in LIBRARY_ONLY
    trees = _src_trees()
    public = {f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreached = {d for d in public if d.split(".")[1] not in referenced}
    assert unreached - set(LIBRARY_ONLY) == set()
    # every exception still names an unreached definition
    assert set(LIBRARY_ONLY) <= unreached
