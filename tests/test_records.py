"""What the library's records promise, whatever type implements them.

Reports, root data and matrices are immutable tuples (``NamedTuple``s,
and ``IntMatrix`` a tuple of its rows), so importing the package needs
neither ``dataclasses`` nor its per-class code generation.  These tests
pin what that choice could change without any output changing:
immutability, equality and hashing, row iteration, truth values and
arithmetic that must not fall through to tuple operations.  They also
pin the import set of a cold start, the names the benchmark's tracer
rebinds, and the package's public surface, and that every public
function and class has a caller.
"""

import argparse
import ast
import glob
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

import coxchar
from coxchar import character, cli, cyclotomic, lattice, oracle, rootdata, torsion, weyl
from coxchar.cyclotomic import CyclotomicInt, divide_exact
from coxchar.lattice import IntMatrix
from coxchar.rootdata import build

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = (character, cyclotomic, lattice, oracle, rootdata, torsion, weyl)


def _instances() -> dict:
    """One instance of every record class, built by the library."""
    rd = build("A1xB2")
    f = rd.factors[1]
    a2 = build("A2")
    one = CyclotomicInt.one(5)
    return {
        "CartanType": rd.cartan_type,
        "RootPair": f.positive[0],
        "PackedCoroots": f.packed,
        "SimpleFactor": f,
        "RootDatum": rd,
        "IntMatrix": rd.cartan,
        "FiniteAbelianGroup": rd.center,
        "CyclotomicInt": one,
        "CyclotomicRational": divide_exact(one, one),
        "BlockingCoroot": character.char_at_coxeter(a2, (1, 0)).blocking_coroot,
        "FactorCharValue": character.char_at_coxeter(rd, (0, 0, 0)).factors[0],
        "CharReport": character.char_at_coxeter(rd, (0, 0, 0)),
        "CentralCharacter": character.rho_central_character(rd),
        "LiftOrderReport": character.coxeter_lift_order(rd)[0],
        "PrincipalCocharacterReport": character.verify_principal_cocharacter(rd)[0],
        "DualityReport": torsion.duality_report(a2, 3),
        "OrbitReport": torsion.classify_regular_orbits(a2, 3),
    }


def _record_classes() -> set[str]:
    """Every tuple-based class the library defines."""
    return {
        name
        for mod in MODULES
        for name, obj in vars(mod).items()
        if inspect.isclass(obj) and issubclass(obj, tuple) and obj.__module__ == mod.__name__
    }


def test_every_record_class_is_covered():
    assert _record_classes() == set(_instances())


@pytest.mark.parametrize("name", sorted(_instances()))
def test_records_reject_attribute_assignment(name):
    rec = _instances()[name]
    assert type(rec).__name__ == name
    field = rec._fields[0] if hasattr(rec, "_fields") else "rows"
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


def test_evaluation_caches_take_no_new_attributes():
    ev = oracle.CoxeterEvaluation.for_factor(build("A2").factors[0])
    with pytest.raises(AttributeError):
        ev.not_a_field = 1


def test_equal_builds_are_equal_and_hash_equal():
    a, b = build("E8"), build("E8")
    assert a == b
    assert hash(a) == hash(b)
    assert build("A1xB2") != build("B2xA1")


def test_a_matrix_iterates_as_its_rows():
    rd = build("B2")
    assert list(rd.cartan) == [(2, -1), (-2, 2)]
    assert rd.cartan[1] == (-2, 2)
    assert (rd.cartan.rows, rd.cartan.cols) == (2, 2)
    assert isinstance(rd.cartan.scale(2), IntMatrix)
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix.from_rows([[1, 2], [3]])


def test_cyclotomic_truth_and_arithmetic():
    assert not CyclotomicInt.from_poly(5, [])
    assert CyclotomicInt.one(5)
    with pytest.raises(TypeError):
        2 * CyclotomicInt.one(5)
    assert CyclotomicInt.one(5) * CyclotomicInt.one(5) == CyclotomicInt.one(5)
    assert divide_exact(CyclotomicInt.one(5), CyclotomicInt.one(5)) == CyclotomicInt.one(5)


_COLD_START = """
import json, sys
before = set(sys.modules)
import coxchar
from coxchar import cli
e8 = coxchar.build("E8")
coxchar.char_at_coxeter(e8, (1, 0, 0, 0, 0, 0, 1, 2))
coxchar.fs_indicator(e8, (0, 0, 0, 0, 0, 0, 0, 1))
a2 = coxchar.build("A2")
coxchar.char_at_coxeter_oracle(a2, (1, 1))
coxchar.classify_regular_orbits(a2, 3)
coxchar.duality_report(a2, 3)
cli.main(["char", "A2", "1", "1"])
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cold_start_loads_no_dataclasses_inspect_or_fractions():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START], capture_output=True, text=True, env=env, check=True
    )
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "coxchar.character" in loaded
    assert loaded & {"dataclasses", "inspect", "fractions"} == set()


def _perfbench(name: str):
    """A module of the benchmark harness, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,target", sorted(_perfbench("tracing").TARGETS.items()))
def test_every_tracing_target_resolves_to_a_callable(name, target):
    # resolved as the tracer does: the attribute must sit on its owner
    modname, path = target
    module = importlib.import_module(modname)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    raw = vars(owner).get(attr)
    if isinstance(raw, classmethod):
        raw = raw.__func__
    assert callable(raw), f"{name}: {modname}.{path} is {raw!r}"


# ops of the seed-7 list that each workload runs here: all of the two
# that take well under a second, the first 50 of the other two
BENCHMARK_OPS = {"table-small": 50, "char-large": None, "verify-oracle": 50, "torsion-census": None}


@pytest.mark.parametrize("name", sorted(BENCHMARK_OPS))
def test_benchmark_ops_run_and_pass_their_checks(name):
    # the benchmark calls the library through the worker's runners and
    # judges the outputs with its own checks: a call it makes that no
    # longer fits the library fails here, not only in a benchmark run
    worker, workloads = _perfbench("worker"), _perfbench("workloads")
    info = {t: workloads.TypeInfo(t, build) for t in workloads.workload_types(name)}
    rds = {t: build(t) for t in info}
    for op in workloads.generate(name, 7, info)[: BENCHMARK_OPS[name]]:
        res = worker.OPS[name](coxchar, rds, op)()
        assert workloads.check(name, op, res, info) is None, op


def _referenced_names(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_function_and_class_has_a_caller():
    # a caller is a reference from another top-level statement of the
    # library (``__init__`` and the definition's own body do not count)
    # or from the benchmark, whose tracer names its targets in strings
    defined, used = {}, set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "coxchar", "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own and not own.startswith("_"):
                defined[own] = os.path.basename(path)
            used |= _referenced_names(stmt) - {own}
    for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        with open(path) as fh:
            used |= _referenced_names(ast.parse(fh.read()))
    for _, target in _perfbench("tracing").TARGETS.values():
        used |= set(target.split("."))
    assert sorted(f"{mod}:{name}" for name, mod in defined.items() if name not in used) == []


# Adding or removing an export is a contract change: it edits this list.
PUBLIC_SURFACE = [
    "CapExceeded",
    "CharReport",
    "CoxcharError",
    "CyclotomicInt",
    "FiniteAbelianGroup",
    "IntMatrix",
    "InternalCheckError",
    "RootDatum",
    "RootPair",
    "TheoremViolation",
    "build",
    "char_at_coxeter",
    "char_at_coxeter_oracle",
    "char_group_of_torsion",
    "classify_regular_orbits",
    "coxeter_lift_order",
    "cyclotomic_polynomial",
    "divide_exact",
    "duality_involution",
    "duality_report",
    "fs_indicator",
    "make_dominant",
    "pairing",
    "quotient",
    "regularity_test",
    "rho_central_character",
    "verify_principal_cocharacter",
]


def test_public_surface_is_pinned():
    assert PUBLIC_SURFACE == sorted(PUBLIC_SURFACE)
    assert coxchar.__all__ == PUBLIC_SURFACE
    for name in coxchar.__all__:
        assert getattr(coxchar, name, None) is not None, name


# Adding or removing a command-line option is a contract change: it edits
# this dict (subcommand -> its option strings, sorted, help left out).
CLI_OPTIONS = {
    "char": ["--oracle", "--weyl-cap"],
    "check-all": ["--max-coord", "--weyl-cap"],
    "fs": [],
    "info": [],
    "table": ["--format", "--max-coord"],
    "torsion": [],
    "verify": ["--max-coord", "--random", "--seed", "--weyl-cap"],
}


def test_cli_options_are_pinned():
    sub = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        name: sorted(s for a in p._actions if a.dest != "help" for s in a.option_strings)
        for name, p in sub.choices.items()
    }
    assert options == CLI_OPTIONS
