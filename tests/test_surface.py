"""No dead public API: every public function or class defined at the top
level of a ``chebrace`` module, and every public method or property of
those classes, is referenced somewhere in the package outside its own
definition.  Code only the tests call belongs in ``tests/oracles.py``;
code nothing calls is deleted.

A reference is a name token of the source, so words in docstrings and
comments do not count, while a local variable or attribute of the same name
does (any ``.order`` or local ``order`` keeps the property ``Group.order``
alive).  Dunder methods and dataclass fields are not part of the surface.
ALLOWED would list unreferenced names kept on purpose; it is empty and
must stay so.
"""
from __future__ import annotations

import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

import oracles

SRC = Path(__file__).resolve().parent.parent / "src" / "chebrace"

ALLOWED: frozenset[str] = frozenset()

# names that moved out of the package and live only in the oracles: the
# per-pair weight paths that the batch ``races.pair_weights`` replaced, the
# ring operations of CycloInt beyond sums, the element-at-a-time group
# operations, the tame-conductor layer over literal primes, and the
# test-only character sums
ORACLE_ONLY = {
    "complex_values", "difference_terms",
    "neg", "sub", "scale", "mul", "conjugate", "promote", "compress",
    "is_zero", "is_rational", "as_int", "to_complex", "to_float",
    "identity", "elements", "multiply", "inverse", "class_members", "embed",
    "RamifiedPrime", "RamificationData", "artin_conductor_tame",
    "CharacterConductor", "conductor_report", "conductor_discriminant",
    "discriminant_exponent_tame", "explicit_scenario", "random_ramification",
    "symplectic_value_sum", "multiplicity",
}


def _surface() -> list[tuple[str, str, str, int]]:
    """(module, qualified name, name, uses) of every public top-level def or
    class and every public method or property of those classes; uses counts
    the name tokens of that name in the package outside that definition."""
    defs = []
    tokens: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.parse(text).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            defs.append((path.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(path.name, f"{node.name}.{sub.name}", sub)
                         for sub in node.body
                         if isinstance(sub, ast.FunctionDef)
                         and not sub.name.startswith("_")]
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                tokens[tok.string].append((path.name, tok.start[0]))
    return [(module, qualname, node.name,
             sum(1 for where, line in tokens[node.name]
                 if where != module or not node.lineno <= line <= node.end_lineno))
            for module, qualname, node in defs]


def test_every_public_name_has_a_caller_in_the_package():
    dead = [f"{module}: {qualname}" for module, qualname, name, uses in _surface()
            if not uses and name not in ALLOWED]
    assert not dead, ("public names with no reference in src/chebrace; "
                      "delete them or move test-only code to tests/oracles.py: "
                      f"{dead}")


def test_surface_covers_methods_and_properties():
    qualnames = {qualname for _, qualname, _, _ in _surface()}
    assert {"Group.element_order", "Group.order", "ArithmeticScenario.group",
            "RaceModel.with_mean"} <= qualnames
    assert not any(q.split(".")[-1].startswith("_") for q in qualnames)


def test_allowlist_is_current():
    assert not ALLOWED, f"the allowlist must stay empty: {sorted(ALLOWED)}"


def test_moved_names_live_only_in_the_oracles():
    defined = {name for _, _, name, _ in _surface()}
    assert not ORACLE_ONLY & defined
    assert all(callable(getattr(oracles, name, None)) for name in ORACLE_ONLY)
