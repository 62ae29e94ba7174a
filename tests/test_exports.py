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
    "fespace.FeFunction.evaluate": "the tests' oracle: evaluation at physical points",
    "_poly.BaryPoly.eval": "the tests' oracle: one polynomial at barycentric points, the "
                           "per-row form of bary_tabulate",
}


def _src_trees():
    src = pathlib.Path(ncfem.__file__).parent
    return {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}


def _public_definitions(trees):
    """``module.name`` of each public top-level function and class, and
    ``module.Class.name`` of each public method of a public class."""
    public = set()
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                public.add(f"{mod}.{node.name}")
                if isinstance(node, ast.ClassDef):
                    public |= {f"{mod}.{node.name}.{f.name}" for f in node.body
                               if isinstance(f, ast.FunctionDef) and f.name[0] != "_"}
    return public


def _unreached(trees):
    """The public definitions whose name nothing in src/ reads."""
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return {d for d in _public_definitions(trees) if d.rsplit(".", 1)[1] not in referenced}


def test_every_public_definition_is_referenced_in_src():
    # a public top-level function or class, or a public method of a public
    # class, that nothing in src/ names is reached by tests alone: delete it,
    # or list it in LIBRARY_ONLY
    unreached = _unreached(_src_trees())
    assert unreached - set(LIBRARY_ONLY) == set()
    # every exception still names an unreached definition
    assert set(LIBRARY_ONLY) <= unreached


def test_an_unreferenced_method_is_found():
    trees = _src_trees()
    trees["planted"] = ast.parse("class Planted:\n    def never_called(self):\n        pass\n"
                                 "\n\nx = Planted()\n")
    assert _unreached(trees) - set(LIBRARY_ONLY) == {"planted.Planted.never_called"}


def test_only_quadrature_builds_cells():
    # every Cell outside quadrature.cells comes from quadrature.sample_cell, so
    # the subcell-to-triangle map of a sample point is worked out in one place
    calls = [f"{mod}.py:{node.lineno}" for mod, tree in _src_trees().items()
             if mod != "quadrature" for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Cell"]
    assert calls == []
