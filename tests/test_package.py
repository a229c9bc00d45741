import importlib
import pkgutil

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
