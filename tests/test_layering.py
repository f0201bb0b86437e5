"""The brute-force oracle stays independent evidence.

``perm`` and ``mmp`` import nothing from ``gf``, ``dyck``, ``oracle`` or
``cli``, so a brute-force count never runs engine, router or bijection code;
and ``perm``, ``mmp`` and ``oracle`` apply no ``functools`` cache, so no
oracle result outlives the call that computed it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qmmp"
CACHES = {"lru_cache", "cache", "cached_property"}


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _qmmp_imports(tree):
    """Names of the qmmp modules that a module imports, relative or absolute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif (node.module or "").startswith("qmmp."):
                module = node.module[len("qmmp.") :]
            elif node.module == "qmmp":
                module = None
            else:
                continue
            if module is None:
                out.update(alias.name for alias in node.names)
            else:
                out.add(module.split(".")[0])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qmmp" and len(parts) > 1:
                    out.add(parts[1])
    return out


def _cache_uses(tree):
    """Cache decorators applied, and cache names taken from functools."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else target.id
                if name in CACHES:
                    found.append(f"@{name} on {node.name}")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"imports {a.name}" for a in node.names if a.name in CACHES]
        elif isinstance(node, ast.Attribute) and node.attr in CACHES:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(f"functools.{node.attr}")
    return found


def test_oracle_layers_import_no_engine_code():
    for module in ("perm", "mmp"):
        imported = _qmmp_imports(_tree(module))
        assert not imported & {"gf", "dyck", "oracle", "cli"}, (module, imported)
    # the scan does see the imports that are allowed
    assert {"perm", "series"} <= _qmmp_imports(_tree("mmp"))
    assert {"dyck", "gf", "mmp", "perm"} <= _qmmp_imports(_tree("oracle"))


def test_oracle_layers_hold_no_functools_cache():
    for module in ("perm", "mmp", "oracle"):
        assert _cache_uses(_tree(module)) == [], module
    # the scan does see the engine caches
    assert "@lru_cache on _narayana" in _cache_uses(_tree("gf"))
