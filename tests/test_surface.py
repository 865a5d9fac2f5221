"""No dead public API: every public function or class defined at the top
level of a ``chebrace`` module is referenced somewhere in the package
outside its own definition.  Code only the tests call belongs in
``tests/oracles.py``; code nothing calls is deleted.

A reference is a name token of the source, so words in docstrings and
comments do not count, while a local variable of the same name does (that
is why ``cyclotomic.sub`` needs no entry).  ALLOWED lists the
few unreferenced names that are kept on purpose; each must still be
defined and still unreferenced, so the list cannot go stale.
"""
from __future__ import annotations

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

import oracles

SRC = Path(__file__).resolve().parent.parent / "src" / "chebrace"

ALLOWED = {
    # the tame-conductor layer of arithmetic.py, read by acceptance
    # criterion 4
    "conductor_report",
    "discriminant_exponent_tame",
    "explicit_scenario",
    "random_ramification",
    # the Montgomery-Odlyzko tail shape, groundwork for a tail engine
    "mo_tail",
    # the odd-index cancellation sum, read by acceptance criterion 3
    "symplectic_value_sum",
    # the ring operations of CycloInt that only the oracles use
    "compress",
    "conjugate",
    "mul",
    "promote",
    "scale",
}

# per-pair weight paths that the batch ``races.pair_weights`` replaced; they
# stay only as the oracle it is tested against
ORACLE_ONLY = {"complex_values", "difference_terms"}


def _surface() -> tuple[list[tuple[str, str]], Counter]:
    """(module, name) of every public top-level def or class, and the count
    of name tokens per name outside the definition of that name."""
    defined = []
    uses: Counter = Counter()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        spans = {}
        for node in ast.parse(text).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.append((path.name, node.name))
                spans[node.name] = (node.lineno, node.end_lineno)
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type != tokenize.NAME:
                continue
            own = spans.get(tok.string)
            if own is None or not own[0] <= tok.start[0] <= own[1]:
                uses[tok.string] += 1
    return defined, uses


def test_every_public_name_has_a_caller_in_the_package():
    defined, uses = _surface()
    dead = [f"{module}: {name}" for module, name in defined
            if not uses[name] and name not in ALLOWED]
    assert not dead, ("public names with no reference in src/chebrace; "
                      "delete them or move test-only code to tests/oracles.py: "
                      f"{dead}")


def test_allowlist_is_current():
    defined, uses = _surface()
    names = {name for _, name in defined}
    assert ALLOWED <= names, f"allowed but not defined: {ALLOWED - names}"
    used = sorted(name for name in ALLOWED if uses[name])
    assert not used, f"allowed names that now have callers: {used}"


def test_replaced_weight_paths_live_only_in_the_oracles():
    defined, _ = _surface()
    assert not ORACLE_ONLY & {name for _, name in defined}
    assert all(callable(getattr(oracles, name, None)) for name in ORACLE_ONLY)
