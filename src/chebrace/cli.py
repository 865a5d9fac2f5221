"""Command-line front end for the race experiments, and the report writers.

Verbs: table, race, horizontal, tower, monotonicity, sandwich, mod4, and
zeros (gen / check).  Each driver verb calls its driver with the flags
given and no others, so a flag left out takes the driver's default.
Reports go to stdout as JSON unless --out is given; exit codes are 0 on
success, 2 for configuration errors, 3 when two internal computations of
the same quantity disagree.
"""
from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import sys
from typing import Iterable, Sequence

from .experiments import (
    ConfigError,
    InternalInconsistencyError,
    TABLE_IDS,
    check_seed,
    check_t_max,
    horizontal_experiment,
    mod4_experiment,
    monotonicity_experiment,
    parse_class_label,
    read_zero_file,
    reproduce_table,
    run_race,
    sandwich_experiment,
    tower_experiment,
)
from .groups import DIHEDRAL, QUATERNION
from .zeros import ZeroCountModel, sample_zero_set, save_zero_file

# a race config holds run_race's keyword arguments, nothing else
RACE_CONFIG_KEYS = tuple(inspect.signature(run_race).parameters)


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------


_JSON_CONTAINERS = (dict, list, tuple)
# exact types that are never containers: the quick test for a leaf
_JSON_LEAVES = frozenset((str, int, float, bool, type(None)))
_DICT_ONLY = frozenset((dict,))


@functools.cache
def _json_encoder(depth: int) -> json.JSONEncoder:
    """Writes a container at nesting ``depth`` whose items hold no
    container.  json runs its C encoder only without ``indent``, so the
    indent goes into the item separator instead."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": "))


def _leaves(items) -> bool:
    return (_JSON_LEAVES.issuperset(map(type, items))
            or not any(isinstance(v, _JSON_CONTAINERS) for v in items))


# one column of leaves per call, one item a line
_COLUMN_ENCODER = json.JSONEncoder(separators=("\n", ": "))
# rows of a list of flat dicts encoded per pass: bounds the column temporaries
_ROW_CHUNK = 1024


def _row_block(order: list[str], values: list[list], count: int, depth: int,
               row_sep: str) -> str:
    """``count`` rows with the sorted keys ``order`` and the leaf columns
    ``values``, as dicts at nesting ``depth`` joined by ``row_sep``: one
    encoder call per column and one join."""
    if not order:
        return row_sep.join(["{}"] * count)
    indent = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth + "}"
    keys = [_COLUMN_ENCODER.encode(k) + ": " for k in order]
    # what follows each column's value: the next key, or the row's close
    # and the next row's first key
    after = ["," + indent + k for k in keys[1:]]
    after.append(close + row_sep + "{" + indent + keys[0])
    width = 2 * len(order)
    parts = [""] * (width * count)
    for j, column in enumerate(values):
        parts[2 * j::width] = _COLUMN_ENCODER.encode(column)[1:-1].split("\n")
        parts[2 * j + 1::width] = [after[j]] * count
    parts[-1] = close
    return "{" + indent + keys[0] + "".join(parts)


def _flat_rows(rows: Sequence[dict], depth: int) -> str | None:
    """The dicts ``rows``, items of a list at nesting ``depth``, joined as
    ``_json`` joins them, encoded a column at a time; None unless every row
    is a dict with str keys and leaf values.

    Rows are grouped by their key tuple, and each group is one
    ``_row_block``.  A column is one encoder call with a newline between
    items; an encoded leaf holds no raw newline (strings escape it), so
    splitting at the newlines gives back each item's text exactly.  With
    more than one group, each group's rows are joined by NUL, which no
    encoded text holds either, and split apart to go back in row order."""
    if not _DICT_ONLY.issuperset(map(type, rows)):
        return None
    keysets = list(map(tuple, rows))
    groups: dict[tuple, Sequence[int]] = dict.fromkeys(keysets)
    if len(groups) == 1:
        groups[keysets[0]] = range(len(rows))
    else:
        for keys in groups:
            groups[keys] = []
        for i, keys in enumerate(keysets):
            groups[keys].append(i)
    blocks = []
    for keys, where in groups.items():
        if not all(type(k) is str for k in keys):
            return None
        members = rows if len(groups) == 1 else [rows[i] for i in where]
        order = sorted(keys)
        values = [[row[k] for row in members] for k in order]
        if not all(map(_leaves, values)):
            return None
        blocks.append((order, values, where))
    row_sep = ",\n" + "  " * (depth + 1)
    if len(blocks) == 1:
        order, values, where = blocks[0]
        return _row_block(order, values, len(where), depth + 1, row_sep)
    texts = [""] * len(rows)
    for order, values, where in blocks:
        block = _row_block(order, values, len(where), depth + 1, "\0")
        for i, text in zip(where, block.split("\0")):
            texts[i] = text
    return row_sep.join(texts)


def _json(value, depth: int) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` lays it
    out at nesting ``depth``.  String escapes leave no newline in the
    encoder's output but its separators' ones, so a container of leaves is
    one encoder call plus the newlines inside its brackets.  A list of
    dicts of leaves (a report's rows) is encoded column by column, a chunk
    of rows at a time (``_flat_rows``); other containers that hold
    containers are walked here."""
    encoder = _json_encoder(depth)
    if not isinstance(value, (dict, list, tuple)) or not value:
        return encoder.encode(value)
    items = value.values() if isinstance(value, dict) else value
    inner = "\n" + "  " * (depth + 1)
    if _leaves(items):
        text = encoder.encode(value)
        opening, body, closing = text[0], text[1:-1], text[-1]
    elif isinstance(value, dict):
        # encoding {key: 0} gives json's own key check and key text
        body = ("," + inner).join(
            encoder.encode({k: 0})[1:-4] + ": " + _json(v, depth + 1)
            for k, v in sorted(value.items()))
        opening, closing = "{", "}"
    else:
        chunks = []
        for lo in range(0, len(value), _ROW_CHUNK):
            chunk = value[lo:lo + _ROW_CHUNK]
            text = _flat_rows(chunk, depth)
            if text is None:
                text = ("," + inner).join(_json(v, depth + 1) for v in chunk)
            chunks.append(text)
        body = ("," + inner).join(chunks)
        opening, closing = "[", "]"
    return "".join((opening, inner, body, "\n", "  " * depth, closing))


def report_json(report: dict) -> str:
    """The report as indented JSON with sorted keys: the layout of
    ``json.dumps(report, indent=2, sort_keys=True)``, byte for byte, and
    the same TypeError for a value json does not know (a numpy int,
    float32 or array among them).  Rows lists of flat dicts
    take the column path of ``_flat_rows``; the newline split there is exact
    because json escapes every newline inside a string."""
    return _json(report, 0) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, _JSON_CONTAINERS):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _csv(header: list, rows: Iterable[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def report_rows_csv(rows: list[dict]) -> str:
    """Flatten dict rows to CSV with a stable sorted header union."""
    header: list[str] = sorted({k for row in rows for k in row})
    return _csv(header, ([_csv_cell(row.get(k)) for k in header] for row in rows))


def report_csv(report: dict) -> str:
    """The report's row list as CSV: its ``rows``, or the ``levels`` of a
    monotonicity report.  A report with neither, or with no rows, is a
    ConfigError: CSV has nothing else to hold."""
    rows = report.get("rows", report.get("levels"))
    if not rows:
        raise ConfigError(f"the {report.get('experiment', 'report')} report has "
                          "no rows to write as CSV")
    return report_rows_csv(rows)


def series_csv(series: dict) -> str:
    return _csv([series["x"], series["y"]],
                ([_csv_cell(x), _csv_cell(y)] for x, y in series["points"]))


def write_report(report: dict, out_path: str | None = None,
                 fmt: str = "json") -> list[str]:
    """Write the report (json or csv rows) to ``out_path``, or to stdout
    without one; plot-ready series, when present, always lands beside a
    written file as CSV.  Returns the written paths."""
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {fmt!r}")
    text = report_json(report) if fmt == "json" else report_csv(report)
    if not out_path:
        sys.stdout.write(text)
        return []
    written = [out_path]
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if "series" in report:
            written.append(out_path + ".series.csv")
            with open(written[-1], "w", encoding="utf-8") as fh:
                fh.write(series_csv(report["series"]))
    except OSError as exc:  # a missing directory, a directory, a full disk
        raise ConfigError(f"cannot write {written[-1]}: {exc.strerror or exc}") from exc
    return written


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _parse_pair(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"pair must be 'label:label', got {text!r}")
    return (parse_class_label(parts[0]), parse_class_label(parts[1]))


def _race_config(path: str) -> dict:
    """run_race's keyword arguments from a JSON config file; run_race
    checks the values."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"bad config JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(data) - set(RACE_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    if "pairs" in data:
        pairs = data["pairs"]
        if not (isinstance(pairs, list) and all(
                isinstance(p, list) and len(p) == 2
                and all(isinstance(c, str) for c in p) for p in pairs)):
            raise ConfigError(f"pairs must be [[label, label], ...], got {pairs!r}")
        data["pairs"] = [(parse_class_label(a), parse_class_label(b))
                         for a, b in pairs]
    return data


def _drive(args: argparse.Namespace) -> int:
    """Call the verb's driver with the flags given (or the race config),
    and write its report.  The driver is looked up by name when the verb
    runs, so a patched module attribute takes effect after the parser is
    built."""
    kwargs = vars(args)
    driver = globals()[kwargs.pop("driver")]
    del kwargs["verb"], kwargs["func"]
    out, fmt = kwargs.pop("out", None), kwargs.pop("format", "json")
    if "config" in kwargs:
        kwargs = _race_config(kwargs["config"])
    elif "pairs" in kwargs:
        kwargs["pairs"] = [_parse_pair(p) for p in kwargs["pairs"]]
    if "f_values" in kwargs:
        try:
            kwargs["f_values"] = tuple(int(x) for x in kwargs["f_values"].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --f-values: {exc}") from exc
    for path in write_report(driver(**kwargs), out, fmt):
        print(path)
    return 0


def _cmd_zeros_gen(args: argparse.Namespace) -> int:
    if not args.log_conductor >= 0:
        raise ConfigError(f"--log-conductor must be >= 0, got {args.log_conductor}")
    if args.degree < 1:
        raise ConfigError(f"--degree must be at least 1, got {args.degree}")
    check_t_max(args.t_max)
    model = ZeroCountModel(args.log_conductor, args.degree)
    try:
        zs = sample_zero_set(model, args.t_max, args.seed,
                             character_id=args.character_id)
    except ValueError as exc:  # the zero count limit
        raise ConfigError(str(exc)) from exc
    try:
        save_zero_file(zs, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    print(f"{args.out}: {len(zs)} ordinates up to {zs.t_max}")
    return 0


def _cmd_zeros_check(args: argparse.Namespace) -> int:
    for path in args.paths:
        zs = read_zero_file(path)
        print(f"{path}: {zs.character_id} {len(zs)} ordinates "
              f"t_max={zs.t_max} source={zs.source}")
    return 0


def _seed(text: str) -> int:
    """argparse type of every --seed flag."""
    try:
        value = int(text)
    except ValueError:
        value = text
    try:
        check_seed(value)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _driver_parser(sub, verb: str, driver, help: str) -> argparse.ArgumentParser:
    """The subparser of a verb that runs ``driver``.  Its flags carry no
    default, so a flag left out is absent and takes the driver's default;
    each flag's dest is the driver parameter it sets."""
    p = sub.add_parser(verb, help=help, argument_default=argparse.SUPPRESS)
    p.set_defaults(func=_drive, driver=driver.__name__)
    return p


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line, built once per process: parsing leaves the parser
    as it was, and the verbs look their drivers up when they run."""
    parser = argparse.ArgumentParser(
        prog="chebrace",
        description="prime-counting races for the two 2-group families")
    sub = parser.add_subparsers(dest="verb", required=True)
    families = (DIHEDRAL, QUATERNION)

    p = _driver_parser(sub, "table", reproduce_table,
                       "computed-vs-published mean tables")
    p.add_argument("--id", dest="table_id", choices=TABLE_IDS, required=True)
    p.add_argument("--n", type=int)
    _add_common(p)

    p = _driver_parser(sub, "race", run_race,
                       "ad-hoc races over explicit class pairs")
    p.add_argument("--family", choices=families)
    p.add_argument("--n", type=int)
    p.add_argument("--w", dest="w_axiom", type=int, choices=(1, -1))
    p.add_argument("--level", type=int)
    p.add_argument("--pair", dest="pairs", action="append", metavar="C1:C2",
                   help="repeatable; default all pairs")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--samples", type=int)
    p.add_argument("--zero-file", dest="zero_files", action="append",
                   metavar="ZERO_FILE", help="repeatable; use file-backed ordinates")
    p.add_argument("--config", help="JSON config file overriding all flags")
    _add_common(p)

    p = _driver_parser(sub, "horizontal", horizontal_experiment,
                       "order-8 races with growing conductor")
    p.add_argument("--f-values")
    p.add_argument("--w", dest="w_axiom", type=int, choices=(1, -1))
    p.add_argument("--seed", type=_seed)
    p.add_argument("--samples", type=int)
    _add_common(p)

    p = _driver_parser(sub, "tower", tower_experiment,
                       "classify all pairs against the published tables")
    p.add_argument("--family", choices=families)
    p.add_argument("--n", type=int)
    p.add_argument("--w", dest="w_axiom", type=int, choices=(1, -1))
    p.add_argument("--seed", type=_seed)
    _add_common(p)

    p = _driver_parser(sub, "monotonicity", monotonicity_experiment,
                       "delta across levels from shared noise")
    p.add_argument("--family", choices=families)
    p.add_argument("--n", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--w", dest="w_axiom", type=int, choices=(1, -1))
    p.add_argument("--seed", type=_seed)
    p.add_argument("--samples", type=int)
    p.add_argument("--t-max", type=float)
    _add_common(p)

    p = _driver_parser(sub, "sandwich", sandwich_experiment,
                       "tail-bound calibration sweep")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--samples", type=int)
    p.add_argument("--t-max", type=float)
    _add_common(p)

    p = _driver_parser(sub, "mod4", mod4_experiment,
                       "nonresidues-vs-residues comparison (non-gating)")
    p.add_argument("--zero-file")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--t-max", type=float)
    # JSON only: the report has no row list to write as CSV
    p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("zeros", help="synthetic ordinate files")
    zsub = p.add_subparsers(dest="zverb", required=True)
    g = zsub.add_parser("gen", help="sample a synthetic ordinate file")
    g.add_argument("--log-conductor", type=float, required=True)
    g.add_argument("--degree", type=int, default=2)
    g.add_argument("--t-max", type=float, default=64.0)
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--character-id", default="unknown")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_zeros_gen)
    c = zsub.add_parser("check", help="validate ordinate files")
    c.add_argument("paths", nargs="+")
    c.set_defaults(func=_cmd_zeros_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
