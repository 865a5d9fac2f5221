"""Regenerate reference.json, the pinned values the output check compares to.

    python3 perfbench/pin.py

Runs every pinned argv (workloads.pinned_argvs) through
``chebrace.cli.main`` and stores the seed-free exact fields (which must agree
across the seeds) and every density with its error bound.  Pin only from a
commit whose reports are known to be right.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from chebrace import cli  # noqa: E402
from checks import deltas, exact_fields, seed_free_key  # noqa: E402
from workloads import pinned_argvs  # noqa: E402


def main() -> int:
    exact: dict[str, dict] = {}
    refs: dict[str, dict] = {}
    for argv in pinned_argvs():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {rc}")
        report = json.loads(buf.getvalue())
        fields = exact_fields(argv[0], report)
        key = seed_free_key(argv)
        if exact.setdefault(key, fields) != fields:
            raise SystemExit(f"exact fields of {key} depend on the seed")
        found = deltas(argv[0], report)
        if found:
            refs[" ".join(argv)] = found
        print(" ".join(argv), file=sys.stderr)
    (HERE / "reference.json").write_text(
        json.dumps({"exact": exact, "deltas": refs}, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
