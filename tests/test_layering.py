"""The brute-force oracle stays independent evidence.

``perm`` and ``mmp`` import nothing from ``gf``, ``dyck``, ``oracle`` or
``cli``, so a brute-force count never runs engine, router or bijection code;
``dyck`` imports from ``perm`` only, so the one column rule of both inverse
maps carries no tally, engine or oracle code; ``series`` imports from
``perm`` only (its ``TSeries`` is a ``perm._Frozen``), so the polynomial
layer stays below ``mmp`` and ``gf``; ``perm``, ``mmp`` and
``oracle`` apply no ``functools`` cache; and ``perm`` and ``mmp``, where the
walks build their move, lane, mask and tally tables, ``dyck``, whose column
and staircase steps the oracle's passes call per move, and ``oracle``, whose
level passes build one set of states per level, bind no mutable container
at module or class level and no mutable default argument.  So no oracle
result outlives the call that computed it; nor does a walk's table or level
of states through a reference cycle, which would live on until the next
cyclic collection.  No function of ``perm``, ``mmp`` or ``oracle`` calls
itself: every walk runs level by level or on an explicit stack.  ``gf``
has one recursion, ``_c_akel``, for every 132 family; the 123 peaks and
non-peaks are a bottom-up walk.
``IntPoly`` and ``BiPoly`` differ only in their variables: every operation
is one function of ``series._Poly``.
``gf`` takes from ``mmp`` only the spec record and its slot types and names no
oracle walk, so an engine-vs-oracle check compares two independent counts.
"""

import ast
import gc
from pathlib import Path

import qmmp
from qmmp import oracle
from qmmp.mmp import QuadrantSpec, bivariate_distributions, distribution
from qmmp.perm import P132, Permutation, avoiders, occurs
from qmmp.series import BiPoly, IntPoly, _Poly

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
    assert _qmmp_imports(_tree("dyck")) == {"perm"}
    assert _qmmp_imports(_tree("series")) == {"perm"}


def test_oracle_layers_hold_no_functools_cache():
    for module in ("perm", "mmp", "oracle"):
        assert _cache_uses(_tree(module)) == [], module
    # the scan does see the engine caches
    assert "@lru_cache on _narayana" in _cache_uses(_tree("gf"))


def _self_calls(tree):
    """Functions, at any depth, that call themselves by name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = (c for c in ast.walk(node) if isinstance(c, ast.Call))
            if any(isinstance(c.func, ast.Name) and c.func.id == node.name for c in calls):
                found.append(node.name)
    return found


def test_oracle_walks_are_not_recursive():
    for module in ("perm", "mmp", "oracle"):
        assert _self_calls(_tree(module)) == [], module
    # the scan does see the engines' one recursion, for every 132 family
    assert _self_calls(_tree("gf")) == ["_c_akel"]


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


# The functions that build per-call tables or that the walks call per move,
# per module scanned.
KERNELS = {
    "perm": {"avoiders"},
    "mmp": {"_packed_histogram", "_lane_walks"},
    "dyck": {"_column", "_stair"},
    "oracle": {"_levels", "_path_words", "_path_certified", "_walk_certified", "_band_values"},
}


def test_oracle_kernel_tables_live_inside_a_call():
    for module, kernels in KERNELS.items():
        tree = _tree(module)
        assert _lasting_tables(tree) == [], module
        # the walks that build tables are the ones scanned
        functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert kernels <= functions, module
    # the scan does see lasting tables
    probe = ast.parse("T = {}\nclass C:\n    rows: list = list()\ndef f(m=[]):\n    global T\n")
    assert _lasting_tables(probe) == ["T", "C.rows", "default of f", "global T"]


def _callers(tree, name):
    """Top-level functions whose bodies, nested functions included, call ``name``."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            calls = (c.func for c in ast.walk(node) if isinstance(c, ast.Call))
            if any(getattr(f, "id", None) == name or getattr(f, "attr", None) == name for f in calls):
                found.append(node.name)
    return found


def test_one_lane_walk_builder():
    # distributions and bivariate_distributions are two images of one
    # builder, the one mmp function that walks and unpacks lanes; the band
    # subjects' walk collects tally rows and unpacks nothing
    mmp_tree, oracle_tree = _tree("mmp"), _tree("oracle")
    assert _callers(mmp_tree, "_packed_histogram") == _callers(mmp_tree, "unpack") == ["_lane_walks"]
    assert _callers(oracle_tree, "_packed_histogram") == ["_band_values"]
    assert _callers(oracle_tree, "unpack") == []
    # the scan does see the engines' reader
    assert _callers(_tree("gf"), "unpack") == ["_unpack"]


# The mmp and oracle entry points that count by walking the avoiders.
ORACLE_WALKS = {
    "distribution",
    "distributions",
    "bivariate_distributions",
    "_packed_histogram",
    "_lane_walks",
}


def _named(tree, names):
    """The names among ``names`` that a module reads, as a name or an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.add(node.attr)
    return found


def _taken_from(tree, module):
    """What a module imports from the qmmp module ``module``: the names, and
    ``module`` itself for an import of the whole module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if not node.level:
                if source.split(".")[0] != "qmmp":
                    continue
                source = source[len("qmmp.") :]
            if source == module:
                out.update(alias.name for alias in node.names)
            elif not source:
                out.update(alias.name for alias in node.names if alias.name == module)
        elif isinstance(node, ast.Import):
            out.update(module for alias in node.names if alias.name == f"qmmp.{module}")
    return out


def test_engines_call_no_oracle_walk():
    gf_tree = _tree("gf")
    assert _named(gf_tree, ORACLE_WALKS) == set()
    assert _taken_from(gf_tree, "mmp") == {"EMPTY", "Coord", "QuadrantSpec"}
    # the scans do see a walk named and a whole-module import
    assert {"distributions", "bivariate_distributions"} <= _named(_tree("oracle"), ORACLE_WALKS)
    probe = "from . import mmp as m\nfrom .mmp import A\nimport qmmp.mmp\nfrom qmmp.mmp import B\n"
    assert _taken_from(ast.parse(probe), "mmp") == {"mmp", "A", "B"}


def test_oracle_walks_leave_no_reference_cycle():
    # a table held by a cycle outlives its call until the collector runs, so
    # a run's peak memory would depend on when that happens
    gc.collect()
    gc.disable()
    try:
        distribution(9, P132, QuadrantSpec(0, 1, 0, 0))
        bivariate_distributions(9, [(k1, k2) for k1 in range(3) for k2 in range(4)])
        oracle._band_values(9, ((0, 0), (1, 2), (3, 3)))
        oracle.verify_all(3)
        for n in (1, 8):
            oracle._path_certified(n)
            oracle._path_failures(n)
            oracle._walk_certified(n)
            oracle._walk_failures(n)
        sigma = Permutation.parse("471569283")
        for tau in ("123", "132", "213", "231", "312", "321"):
            occurs(Permutation.parse(tau), sigma)
        avoiders(7, P132)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _unread_imports(tree):
    """Names a module imports (``__future__`` features aside) and never reads."""
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(imported - read)


def test_modules_read_every_name_they_import():
    # the package's __init__ imports to re-export; every other module reads
    # each name it imports
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            assert _unread_imports(_tree(path.stem)) == [], path.name
    # the scan does see an unread import
    probe = "from __future__ import annotations\nimport os.path\nfrom x import y as z, w\nw()\n"
    assert _unread_imports(ast.parse(probe)) == ["os", "z"]


def test_public_names_resolve():
    assert all(hasattr(qmmp, name) for name in qmmp.__all__)
    namespace = {}
    exec("from qmmp import *", namespace)
    assert set(qmmp.__all__) <= namespace.keys()


def test_one_polynomial_implementation():
    # perfbench/spans.py wraps each class's own operators and render, so both
    # classes bind the base's functions in their own namespace
    shared = {
        "__add__": "__add__",
        "__radd__": "__add__",
        "__mul__": "__mul__",
        "__rmul__": "__mul__",
        "render": "render",
    }
    for name, base in shared.items():
        assert vars(IntPoly)[name] is vars(BiPoly)[name] is vars(_Poly)[base], name
    for name in ("__eq__", "__hash__", "coeff", "items", "mass"):
        for cls in (IntPoly, BiPoly):
            assert name not in vars(cls) and getattr(cls, name) is vars(_Poly)[name], name
