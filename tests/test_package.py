import ast
import importlib
import pkgutil
import re
from pathlib import Path

import kronmul
from kronmul import cli

ROOT = Path(__file__).resolve().parent.parent


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
        "perfbench's tracer wraps it in ksint's namespace (ROADMAP item 1)",
    ("ksint", "pack_negated_reversed"):
        "perfbench's tracer wraps it in ksint's namespace (ROADMAP item 1)",
}


def _trees():
    # Each module of the package, parsed, by name.
    return {path.stem: ast.parse(path.read_text())
            for path in Path(kronmul.__file__).parent.glob("*.py")}


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
    trees = _trees()
    loaded = set().union(*map(_loads, trees.values()))
    dead = set()
    for module, tree in trees.items():
        used = _loads(tree) | _exported(tree)
        dead |= {(module, name) for name, imported in _top_level(tree)
                 if name not in (used if imported else loaded)}
    assert dead == set(UNLOADED_KEPT)


def _package_imports(tree):
    # (module, name) for each name a module imports from the package, at
    # any depth; name is None where it imports the module itself.  Every
    # such import is relative, so none slips past as ``kronmul.x``.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("kronmul") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level or not node.module.startswith("kronmul")
            for alias in node.names if node.level else ():
                yield ((node.module, alias.name) if node.module
                       else (alias.name, None))


def test_layering():
    # bignat is the multiply alone, pack every base-2**N layout with no
    # multiply in it, and ksint takes only bignat's public names.
    imports = {module: set(_package_imports(tree))
               for module, tree in _trees().items()}
    assert imports["bignat"] == set()
    assert "bignat" not in {module for module, _ in imports["pack"]}
    assert not [name for m, name in imports["ksint"]
                if m == "bignat" and (name is None or name.startswith("_"))]


def test_readme_names_what_exists():
    # Every flag README gives after ``kronmul <subcommand>`` is one of that
    # subcommand's options, and every bench file it names is committed.
    readme = (ROOT / "README.md").read_text()
    parser = cli.build_parser()
    commands = next(a.choices for a in parser._actions
                    if a.dest == "command")
    # An indented line of a code block continues the line above it.
    calls = re.findall(r"(?<!from )kronmul ([a-z]+)((?:[^`\n]|\n[ \t]+)*)",
                       readme)
    assert calls
    for command, rest in calls:
        assert command in commands, command
        flags = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", rest))
        assert flags <= set(commands[command]._option_string_actions), (
            command, flags)
    for name in set(re.findall(r"BENCH_\w+\.json", readme)):
        assert (ROOT / name).is_file(), name


def _resolves(parts):
    # kronmul.<parts>, by getattr, or by import where no attribute binds a
    # submodule yet (``kronmul._cases``).
    obj = kronmul
    for i, part in enumerate(parts, 1):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            try:
                obj = importlib.import_module(
                    ".".join(["kronmul", *parts[:i]]))
            except ImportError:
                return False
    return True


def test_readme_dotted_names_resolve():
    # Every dotted name in README's inline code that starts at the package
    # or one of its modules (``ksint._read``, ``kronmul._cases.CONFIGS``)
    # exists, so a code move fails here until README follows it.  File
    # names (``pack.py``) are not checked.
    readme = (ROOT / "README.md").read_text()
    modules = {info.name for info in pkgutil.iter_modules(kronmul.__path__)}
    names = {name for span in re.findall(r"`([^`\n]+)`", readme)
             for name in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.\w+)+",
                                    span)}
    checked = [parts[1:] if parts[0] == "kronmul" else parts
               for parts in (name.split(".") for name in sorted(names))
               if parts[0] in {"kronmul", *modules}
               and parts[-1] not in {"py", "json", "toml", "md", "txt"}]
    assert checked
    assert [".".join(p) for p in checked if not _resolves(p)] == []


def _stated_counts(text):
    # Counts that a command prints and a later change moves: "622 passed",
    # "38 mutants", "100 cases", "(~90 s)".
    return re.findall(r"\b\d[\d,]*\s+(?:tests?|passed|failed|mutants?|rows?"
                      r"|cases?)\b|~\s*\d[\d.,]*\s*(?:s|ms|min)\b", text)


def test_readme_states_no_printed_count():
    assert _stated_counts("pytest  # full suite (~90 s): 622 passed")
    assert _stated_counts((ROOT / "README.md").read_text()) == []


def test_readme_example_runs():
    # README's python block runs as written, and each "# (...)" line under
    # an expression is that expression's value, so an import of a removed
    # name or a stale output fails here.
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    lines = block.splitlines()
    namespace, shown = {}, 0
    for node in ast.parse(block).body:
        below = lines[node.end_lineno] if node.end_lineno < len(lines) else ""
        if below.startswith("# ("):
            assert isinstance(node, ast.Expr), below
            value = eval(compile(ast.Expression(node.value), "README.md",
                                 "eval"), namespace)
            assert value == ast.literal_eval(below[2:]), below
            shown += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
    assert shown
