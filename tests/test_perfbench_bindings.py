"""The benchmark harness under ``perfbench/`` binds qmmp names from outside.

These checks read its files without changing them, so a refactor that drops
or renames a name the harness uses fails here rather than only inside a
traced benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from qmmp import cli, gf
from qmmp.series import BiPoly, IntPoly, TSeries

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve():
    spans = _spans_module()
    for module, names in spans.ENTRY_POINTS.items():
        mod = importlib.import_module(f"qmmp.{module}")
        for name in names:
            assert inspect.isfunction(getattr(mod, name, None)), f"qmmp.{module}.{name}"
    methods = ["__mul__", "__rmul__"] + [m for ms in spans.POLY_METHODS.values() for m in ms]
    for cls in (IntPoly, BiPoly):
        for attr in methods:
            assert attr in vars(cls), f"{cls.__name__}.{attr}"
    assert inspect.isfunction(vars(TSeries).get("render_lines"))


def test_worker_names_resolve():
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qmmp":
            source = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(source, alias.name), f"{node.module}.{alias.name}"
                value = getattr(source, alias.name)
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
    assert {"gf", "oracle", "cli"} <= modules.keys()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                assert hasattr(modules[node.value.id], node.attr), f"{node.value.id}.{node.attr}"


def test_paper_table_specs_route():
    # engines-deep runs every paper-table spec; none may need brute force
    for avoid, spec in cli.paper_table_specs():
        gf.engine_series(avoid, spec, 0)


def test_tracer_sees_every_engine_family(tmp_path):
    # Installs the span tracer in a fresh interpreter and regenerates the
    # paper tables: the router must reach each engine through its public,
    # traced name.
    script = "\n".join(
        [
            "import sys",
            "sys.path[:0] = sys.argv[1:3]",
            "import qmmp.cli, qmmp.gf, qmmp.oracle",
            "import spans",
            "tracer = spans.Tracer()",
            "spans.install(tracer)",
            "from qmmp.mmp import QuadrantSpec",
            "qmmp.gf.engine_series('132', QuadrantSpec.parse('2,0,e,0'), 6)",
            "qmmp.cli.write_paper_tables(sys.argv[3], 6)",
            "print(' '.join(k for k, v in tracer.counts.items() if v))",
        ]
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(PERFBENCH), str(ROOT / "src"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    called = set(done.stdout.split())
    families = ("k0e0", "0ke0", "kle0", "0kel", "akel", "ekel")
    for name in [f"gf.q132_{f}" for f in families] + ["gf.q123_0k00", "gf.closed_poly_0k0l"]:
        assert f"{name}.calls" in called, name
