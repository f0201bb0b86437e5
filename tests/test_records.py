"""The seven record types and ``TSeries`` are immutable values, and importing qmmp stays light.

Each record compares and hashes by its fields, never equals a value of
another type, refuses assignment and deletion, survives ``pickle`` and
``copy.deepcopy``, takes its fields by keyword, and shows them in its
``repr``.  A ``TSeries``, on the same base, refuses assignment and deletion
too, survives ``pickle`` and ``copy``, and shows only its depth in its
``repr``.  None of them needs ``dataclasses``: a qmmp process imports
neither it nor ``inspect``.
"""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from qmmp.dyck import DyckPath, PathStats
from qmmp.gf import ErrataRecord
from qmmp.mmp import EMPTY, QuadrantSpec
from qmmp.oracle import CellResult, VerificationReport
from qmmp.perm import Permutation
from qmmp.series import BiPoly, IntPoly, TSeries

SRC = Path(__file__).resolve().parents[1] / "src"

# A maker of a fresh value of each record type, and that value's repr.
RECORDS = [
    (lambda: Permutation((2, 3, 1)), "Permutation(word=(2, 3, 1))"),
    (lambda: DyckPath("DDRDRR"), "DyckPath(word='DDRDRR')"),
    (
        lambda: PathStats(frozenset({3}), 1, 0, ((2, 1), (3, 0))),
        "PathStats(returns=frozenset({3}), ret=1, hills=0, peaks=((2, 1), (3, 0)))",
    ),
    (lambda: QuadrantSpec(0, 1, EMPTY, 2), "QuadrantSpec(a=0, b=1, c=EMPTY, d=2)"),
    (
        lambda: ErrataRecord("theorem-3", "k=0,l=0,m=0", 2, "1", "1", "0"),
        "ErrataRecord(subject='theorem-3', parameters='k=0,l=0,m=0', n=2, exponent='1', "
        "stated_value='1', oracle_value='0')",
    ),
    (lambda: CellResult("k=1", "fail", "n=4: got 1"), "CellResult(cell='k=1', status='fail', detail='n=4: got 1')"),
    (
        lambda: VerificationReport("theorem-4", (CellResult("k=0", "pass"),)),
        "VerificationReport(subject='theorem-4', cells=(CellResult(cell='k=0', status='pass', detail=''),))",
    ),
]
IDS = [text.split("(")[0] for _, text in RECORDS]


def _fields(value):
    """The value's fields by name, in constructor order."""
    return {name: getattr(value, name) for name in inspect.signature(type(value)).parameters}


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_records_are_values(make, text):
    value, twin = make(), make()
    assert value is not twin and value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert repr(value) == text
    fields = _fields(value)
    assert type(value)(**fields) == value
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert _fields(value) == _fields(twin)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, proto))
        assert type(back) is type(value) and back == value and hash(back) == hash(value)
    assert copy.deepcopy(value) == value and copy.copy(value) == value


@pytest.mark.parametrize(
    "make",
    [
        lambda: TSeries([IntPoly({0: 1}), IntPoly({1: 2})]),
        lambda: TSeries([BiPoly({(0, 0): 1}), BiPoly({(1, 0): 1, (0, 1): 3})]),
    ],
    ids=["IntPoly", "BiPoly"],
)
def test_series_survive_pickle_and_copy(make):
    value = make()
    assert repr(value) == "TSeries(trunc=1)" and value == make() and hash(value) == hash(make())
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, proto))
        assert type(back) is TSeries and back == value and back.trunc == value.trunc
        assert back.render_lines() == value.render_lines() and hash(back) == hash(value)
    assert copy.deepcopy(value) == value and copy.copy(value) == value
    for name in ("coeffs", "trunc", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    for name in ("coeffs", "trunc"):
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()


def test_records_of_different_types_are_never_equal():
    values = [make() for make, _ in RECORDS]
    for value in values:
        fields = _fields(value)
        assert value != tuple(fields.values()) and tuple(fields.values()) != value
        assert all(value != other for other in values if type(other) is not type(value))
        # a subclass with the very same fields is another type
        subclass = type("Sub", (type(value),), {})(**fields)
        assert subclass != value and value != subclass
    assert Permutation((1,)) != (1,) and DyckPath("DR") != "DR"


def test_empty_stays_the_singleton_through_pickle_and_copy():
    spec = QuadrantSpec(EMPTY, 0, EMPTY, 1)
    for back in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert back.a is EMPTY and back.c is EMPTY and back == spec


def test_record_constructors_keep_their_signatures():
    assert QuadrantSpec(a=0, b=1, c=EMPTY, d=2) == QuadrantSpec(0, 1, EMPTY, 2)
    assert QuadrantSpec(**dict(zip("dcba", (2, EMPTY, 1, 0)))) == QuadrantSpec(0, 1, EMPTY, 2)
    assert CellResult("k=0", "pass").detail == ""
    assert Permutation([2, 1]).word == (2, 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Permutation((1, 1)),
        lambda: Permutation((0, 1)),
        lambda: Permutation((1, True)),
        lambda: DyckPath("RD"),
        lambda: DyckPath("DDR"),
        lambda: DyckPath("DX"),
        lambda: QuadrantSpec(-1, 0, 0, 0),
        lambda: QuadrantSpec(0, True, 0, 0),
        lambda: QuadrantSpec(0, 0, "e", 0),
    ],
)
def test_record_constructors_reject_bad_input(make):
    with pytest.raises(ValueError):
        make()


def _loaded_modules(imports: str) -> set[str]:
    script = f"import sys\n{imports}\nprint(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-s", "-c", script], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return set(done.stdout.split())


def test_qmmp_imports_no_dataclasses_or_inspect():
    # the modules perfbench's worker imports, against a bare interpreter, so
    # that what a site hook loads at start-up counts for neither side
    bare = _loaded_modules("")
    new = _loaded_modules("import qmmp, qmmp.cli, qmmp.gf, qmmp.oracle") - bare
    assert {"qmmp.oracle", "qmmp.cli"} <= new
    assert not new & {"dataclasses", "inspect"}, sorted(new)
