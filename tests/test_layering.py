"""Import layering of the package, read from its source with ``ast``.

``mc`` is the low-level engine: it imports nothing from ``analytic`` or
``sweep``, and no ``analytic`` module imports ``mc`` or ``sweep``, so the
package has no import cycle to dodge.  No module imports another's private
(underscore) name.  Imports sit at module level; the one
exception is ``scipy.stats``, which only ``channel.rician_power_tail`` reads (for
the a2a integral path and the below-knee mass bound of ``build_case``) and which
would more than double the package's import time.
"""

import ast
from pathlib import Path

import sagin_outage

SRC = Path(sagin_outage.__file__).parent


def _imports(path):
    """(absolute module, enclosing function or None, imported names) per import."""
    package = ".".join(("sagin_outage",) + path.relative_to(SRC).parent.parts)
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                found.extend((a.name, func, (a.name,)) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = package.split(".")[:len(package.split(".")) - child.level + 1]
                module = (".".join(base + [child.module] if child.module else base)
                          if child.level else child.module)
                found.append((module, func, tuple(a.name for a in child.names)))
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def _within(module, *packages):
    return any(module == p or module.startswith(p + ".") for p in packages)


def test_mc_imports_neither_analytic_nor_sweep():
    modules = [m for m, _, _ in _imports(SRC / "mc.py")]
    assert modules and not [m for m in modules
                            if _within(m, "sagin_outage.analytic", "sagin_outage.sweep")]


def test_analytic_imports_neither_mc_nor_sweep():
    for path in sorted((SRC / "analytic").glob("*.py")):
        bad = [m for m, _, _ in _imports(path)
               if _within(m, "sagin_outage.mc", "sagin_outage.sweep")]
        assert not bad, (path.name, bad)


def test_the_only_function_level_import_is_ncx2():
    lazy = [(path.name, func, module, names)
            for path in sorted(SRC.rglob("*.py"))
            for module, func, names in _imports(path) if func is not None]
    assert lazy == [("channel.py", "rician_power_tail", "scipy.stats", ("ncx2",))]


def test_no_module_imports_a_private_name_of_another():
    private = [(path.name, module, name)
               for path in sorted(SRC.rglob("*.py"))
               for module, _, names in _imports(path) if _within(module, "sagin_outage")
               for name in names if name.startswith("_")]
    assert not private
