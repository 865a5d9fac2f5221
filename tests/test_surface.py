"""No dead public API: every public function, class or constant defined at
the top level of a ``chebrace`` module, and every public method or property
of those classes, is referenced somewhere in the package outside its own
definition.  Code only the tests call belongs in ``tests/oracles.py``;
code nothing calls is deleted.

A reference is a name token of the source, so words in docstrings and
comments do not count, while a local variable or attribute of the same name
does (any ``.order`` or local ``order`` keeps the property ``Group.order``
alive).  Dunder methods and module dunders such as ``__version__`` are not
part of the surface.  A dataclass field is
alive when some attribute load of its name occurs in the package or in the
benchmark harness (``perfbench/`` reads ``DensityEstimate.samples_or_nodes``).
ALLOWED would list unreferenced names kept on purpose; it is empty and
must stay so.
"""
from __future__ import annotations

import ast
import importlib.util
import io
import tokenize
from collections import defaultdict
from pathlib import Path

import oracles

SRC = Path(__file__).resolve().parent.parent / "src" / "chebrace"
BENCH = SRC.parent.parent / "perfbench"

ALLOWED: frozenset[str] = frozenset()

# names that moved out of the package and live only in the oracles: the
# per-pair race path that ``races.race_table`` replaced (its ``weights``
# is not listed, the name living on as ``RaceTable.weights``), the
# per-pair weight paths that the batch ``races.pair_weights`` replaced, the
# ring operations of CycloInt beyond sums, the element-at-a-time group
# operations, the tame-conductor layer over literal primes, and the
# test-only character sums, the per-character induction, central
# orders, degrees, invariant dimensions, conductor exponents and log
# conductors that the index-pair and array forms replaced, the
# one-model Fourier entry, now the batch of one row, and the odd-prime
# test that only the literal primes need
ORACLE_ONLY = {
    "complex_values", "difference_terms",
    "neg", "sub", "scale", "mul", "conjugate", "promote", "compress",
    "is_zero", "is_rational", "as_int", "to_complex", "to_float",
    "identity", "elements", "multiply", "inverse", "class_members", "embed",
    "RamifiedPrime", "RamificationData", "artin_conductor_tame",
    "CharacterConductor", "conductor_report", "conductor_discriminant",
    "discriminant_exponent_tame", "explicit_scenario", "random_ramification",
    "symplectic_value_sum", "multiplicity",
    "induce", "InducedDecomposition", "_psi_range", "central_order",
    "is_symplectic", "character_degree", "invariant_dimension",
    "conductor_exponent", "log_conductor",
    "RaceSpec", "RaceUndefinedError", "mean", "density_fourier", "_is_odd_prime",
}


def _surface() -> list[tuple[str, str, str, int]]:
    """(module, qualified name, name, uses) of every public top-level def,
    class or assigned name and every public method or property of those
    classes; uses counts the name tokens of that name in the package
    outside that definition (for a constant, its assignment)."""
    defs = []
    tokens: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.parse(text).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs += [(path.name, t.id, t.id, node) for t in targets
                         if isinstance(t, ast.Name) and not t.id.startswith("_")]
                continue
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            defs.append((path.name, node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(path.name, f"{node.name}.{sub.name}", sub.name, sub)
                         for sub in node.body
                         if isinstance(sub, ast.FunctionDef)
                         and not sub.name.startswith("_")]
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                tokens[tok.string].append((path.name, tok.start[0]))
    return [(module, qualname, name,
             sum(1 for where, line in tokens[name]
                 if where != module or not node.lineno <= line <= node.end_lineno))
            for module, qualname, name, node in defs]


def test_every_public_name_has_a_caller_in_the_package():
    dead = [f"{module}: {qualname}" for module, qualname, name, uses in _surface()
            if not uses and name not in ALLOWED]
    assert not dead, ("public names with no reference in src/chebrace; "
                      "delete them or move test-only code to tests/oracles.py: "
                      f"{dead}")


def test_surface_covers_methods_and_properties():
    qualnames = {qualname for _, qualname, _, _ in _surface()}
    assert {"Group.element_order", "Group.order", "ArithmeticScenario.group",
            "RaceTable.weights", "RaceModel.variance", "TABLE_CLAIMS",
            "MOD4_PUBLISHED_DELTA", "RACE_CONFIG_KEYS"} <= qualnames
    assert "__version__" not in qualnames
    assert not any(q.split(".")[-1].startswith("_") for q in qualnames)


def test_allowlist_is_current():
    assert not ALLOWED, f"the allowlist must stay empty: {sorted(ALLOWED)}"


def _unread_fields() -> list[str]:
    """Fields of the package's dataclasses whose name is never read as an
    attribute (``x.name`` in a load) in the package or in the benchmark
    harness under ``perfbench/``, the package's other in-repo client.
    Writes, constructor arguments and ``dataclasses.replace`` keywords do
    not count."""
    fields = []
    reads: set[str] = set()
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        if path.parent != SRC:
            continue
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields += [(f"{path.name}: {node.name}.{st.target.id}", st.target.id)
                           for st in node.body if isinstance(st, ast.AnnAssign)
                           and isinstance(st.target, ast.Name)]
    return [where for where, name in fields if name not in reads]


def test_every_dataclass_field_is_read():
    unread = _unread_fields()
    assert not unread, ("dataclass fields nothing reads; delete them, or keep "
                        f"what only the tests check in tests/oracles.py: {unread}")


def test_bench_scale_phases_name_package_functions():
    # bench/scale.py refuses a phase whose function is gone; resolve every
    # name here so that a rename fails now and not at the next re-record
    spec = importlib.util.spec_from_file_location(
        "bench_scale", SRC.parent.parent / "bench" / "scale.py")
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    missing = []
    for verb, entries in scale.PHASES.items():
        for module, name, phase in entries:
            owner = importlib.import_module(f"chebrace.{module}")
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{verb} {phase}: chebrace.{module}.{name}")
    assert not missing, missing


def test_moved_names_live_only_in_the_oracles():
    defined = {name for _, _, name, _ in _surface()}
    assert not ORACLE_ONLY & defined
    assert all(callable(getattr(oracles, name, None)) for name in ORACLE_ONLY)
