import ast
import importlib
import pkgutil
from pathlib import Path

import kronmul


def test_exports_resolve_and_submodule_names_bind_submodules():
    # Every module of the package but __main__, which runs the CLI when
    # imported.
    modules = [importlib.import_module(f"kronmul.{info.name}")
               for info in pkgutil.iter_modules(kronmul.__path__)
               if info.name != "__main__"]
    for module in [kronmul, *modules]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
    # A re-exported function named like a submodule hides it: ``import
    # kronmul.pack as m`` would bind the function.
    for module in modules:
        name = module.__name__.rpartition(".")[2]
        assert getattr(kronmul, name) is module, name


# Names that no code in the package loads, kept for a reader outside it.
UNLOADED_KEPT = {
    ("bignat", "DEFAULT_MUL_CONFIG"): "perfbench/run.py reads it",
    ("ksint", "pack_negated"):
        "perfbench's tracer wraps it in ksint's namespace (ROADMAP item 2)",
    ("ksint", "pack_negated_reversed"):
        "perfbench's tracer wraps it in ksint's namespace (ROADMAP item 2)",
}


def _loads(tree):
    # Every identifier the tree reads, as a name or as an attribute.
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def _exported(tree):
    # The strings of a top-level ``__all__ = [...]``.
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _top_level(tree):
    # (name, imported) for each name a module's top level binds, but dunders
    # and ``from __future__`` features.
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).partition(".")[0], True
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Name)
                        and not target.id.startswith("__")):
                    yield target.id, False


def test_no_unused_definitions_or_imports():
    # A top-level definition that no module of the package loads, or an
    # import that its own module never uses (a re-export in ``__all__``
    # counts as a use), is dead code unless UNLOADED_KEPT names it.
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(kronmul.__file__).parent.glob("*.py")}
    loaded = set().union(*map(_loads, trees.values()))
    dead = set()
    for module, tree in trees.items():
        used = _loads(tree) | _exported(tree)
        dead |= {(module, name) for name, imported in _top_level(tree)
                 if name not in (used if imported else loaded)}
    assert dead == set(UNLOADED_KEPT)
