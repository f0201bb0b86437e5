"""The brute-force oracle stays independent evidence.

``perm`` and ``mmp`` import nothing from ``gf``, ``dyck``, ``oracle`` or
``cli``, so a brute-force count never runs engine, router or bijection code;
``perm``, ``mmp`` and ``oracle`` apply no ``functools`` cache; and ``perm``
and ``mmp``, where the walks and counters build their move, lane, mask and
tally tables, bind no mutable container at module or class level and no
mutable default argument.  So no oracle result outlives the call that
computed it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qmmp"
CACHES = {"lru_cache", "cache", "cached_property"}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "deque"}


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


def _mutable(value):
    if isinstance(value, CONTAINERS):
        return True
    func = value.func if isinstance(value, ast.Call) else None
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in CONTAINER_CALLS


def _lasting_tables(tree):
    """Mutable containers bound at module or class level, or as argument defaults."""
    found = []

    def scan(body, where):
        for node in body:
            if isinstance(node, ast.ClassDef):
                scan(node.body, f"{where}{node.name}.")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if _mutable(node.value):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found.extend(where + ast.unparse(t) for t in targets)

    scan(tree.body, "")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            if any(_mutable(d) for d in defaults):
                found.append(f"default of {getattr(node, 'name', 'lambda')}")
        elif isinstance(node, ast.Global):
            found.append(f"global {', '.join(node.names)}")
    return found


# The functions that build per-call tables, per module scanned.
KERNELS = {
    "perm": {"avoider_walk"},
    "mmp": {"_packed_histogram", "distributions", "match_counter"},
}


def test_oracle_kernel_tables_live_inside_a_call():
    for module, kernels in KERNELS.items():
        tree = _tree(module)
        assert _lasting_tables(tree) == [], module
        # the walks and counters that build tables are the ones scanned
        functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert kernels <= functions, module
    # the scan does see lasting tables
    probe = ast.parse("T = {}\nclass C:\n    rows: list = list()\ndef f(m=[]):\n    global T\n")
    assert _lasting_tables(probe) == ["T", "C.rows", "default of f", "global T"]
