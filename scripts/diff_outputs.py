#!/usr/bin/env python3
"""Compare two output trees file by file and print the largest relative move.

Usage:
    python3 scripts/diff_outputs.py DIR_A DIR_B

Every file under either directory is matched by its relative path. Per file
one line is printed: ``identical`` when the bytes agree, otherwise the
largest relative move, where it is and the two values that moved (``a -> b``,
so a large relative move of a round-off zero reads as one):

* ``report.json`` (any ``*.json``): over the numeric leaves, |a - b| / |a|
  (the absolute move where a is 0), named by the leaf's key path;
* ``*.csv``: per column, |a - b| over the largest |a| of the column, named
  by the column;
* cache files (``*.sbbasis``, ``*.sboracle``), each read through
  ``stressbasis._cache.read_tagged`` by its own tag line, so files of two
  layouts compare: each array by the CSV rule, named by the array, and the
  meta's ``provenance`` and ``report`` by the JSON rule. The stored ``key``
  is skipped: it holds the build identity, which every edit of the
  package's code moves. Below the file's line, one line per array and one
  for the meta give each part's own largest move and its two values
  (``identical`` when the part agrees exactly), so a round-off figure of
  the stored report does not hide how far the arrays moved;
* other files: ``differs``.

A file found in one tree only, a CSV whose header or row count differs, a
cache file whose tag line differs or that does not read, an array or a JSON
object key found in one file only, an array whose shape differs, or a JSON
value that is not a number (a verdict, a name) and differs is printed as a
structural difference, and the exit code is then 1; numeric moves alone
exit 0. The script imports ``stressbasis``, so run it with the package on
the path (``PYTHONPATH=src``).
"""
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from stressbasis._cache import read_tagged

_CACHE_SUFFIXES = (".sbbasis", ".sboracle")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _values(a, b):
    return f"{a!r} -> {b!r}"


def _rel(a, b, scale):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / scale if scale else abs(a - b)


def diff_json(a_path, b_path):
    """(largest relative move, where and its two values, structural
    differences)."""
    return diff_leaves(json.loads(a_path.read_text()),
                       json.loads(b_path.read_text()))


def diff_leaves(a, b, path=""):
    """``diff_json`` of two parsed JSON values, named under ``path``; an
    object key found in one of them only is one structural line."""
    if isinstance(a, dict) and isinstance(b, dict):
        named = {k: f"{path}.{k}" if path else str(k)
                 for k in a.keys() | b.keys()}
        parts = [diff_leaves(a[k], b[k], named[k]) if k in a and k in b
                 else (0.0, "", [f"{named[k]} in one tree only"])
                 for k in sorted(named)]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = [diff_leaves(x, y, f"{path}[{i}]")
                 for i, (x, y) in enumerate(zip(a, b))]
    elif _is_number(a) and _is_number(b):
        move = _rel(float(a), float(b), abs(float(a)))
        return move, f"{path}  {_values(a, b)}" if move else "", []
    else:
        return 0.0, "", [] if a == b else [f"{path}: {_values(a, b)}"]
    worst, where, structural = 0.0, "", []
    for move, at, lines in parts:
        structural += lines
        if move > worst:
            worst, where = move, at
    return worst, where, structural


def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], [[float(v) if v else math.nan for v in r]
                     for r in rows[1:]]


def diff_csv(a_path, b_path):
    (ha, ra), (hb, rb) = _read_csv(a_path), _read_csv(b_path)
    if ha != hb or len(ra) != len(rb):
        return 0.0, "", [f"header or row count differs ({len(ra)} vs "
                         f"{len(rb)} rows)"]
    worst, where = 0.0, ""
    for j, name in enumerate(ha):
        move, at = _column_move([r[j] for r in ra], [r[j] for r in rb])
        if move > worst:
            worst, where = move, f"{name}  {at}"
    return worst, where, []


def _column_move(col_a, col_b):
    """The largest |a - b| over the largest |a| of the column, and the two
    values that moved so."""
    scale = max((abs(v) for v in col_a if not math.isnan(v)), default=0)
    worst, at = 0.0, ""
    for x, y in zip(col_a, col_b):
        move = _rel(x, y, scale)
        if move > worst:
            worst, at = move, _values(x, y)
    return worst, at


def _tag_line(path):
    with open(path, "rb") as f:
        return f.readline().rstrip(b"\n").decode(errors="replace")


def diff_cache(a_path, b_path):
    """The tag lines, each array by the CSV rule, then the meta's provenance
    and report by the JSON rule; the stored key is skipped. Returns the
    largest move, where it is, the structural differences and one
    (part, move, where) per array and for the meta (an array's where is
    its two values); the move is None when the part agrees exactly."""
    try:
        tags = [_tag_line(p) for p in (a_path, b_path)]
        (meta_a, arrays_a), (meta_b, arrays_b) = (
            read_tagged(str(p), tag) for p, tag in zip((a_path, b_path), tags))
    except (OSError, ValueError) as exc:
        return 0.0, "", [f"unreadable: {exc}"], []
    structural = [f"tag: {tags[0]!r} -> {tags[1]!r}"] \
        if tags[0] != tags[1] else []
    parts = []
    for name in sorted(arrays_a.keys() | arrays_b.keys()):
        a, b = arrays_a.get(name), arrays_b.get(name)
        if a is None or b is None:
            structural.append(f"{name} in one tree only")
        elif a.shape != b.shape:
            structural.append(f"{name}: shape {a.shape} -> {b.shape}")
        elif np.array_equal(a, b, equal_nan=True):
            parts.append((name, None, ""))
        else:
            parts.append((name, *_column_move(a.ravel().tolist(),
                                              b.ravel().tolist())))
    meta_move, meta_at = None, ""
    for part in ("provenance", "report"):
        a, b = meta_a.get(part), meta_b.get(part)
        move, at, lines = diff_leaves(a, b, part)
        structural += lines
        if a != b and (meta_move is None or move > meta_move):
            meta_move, meta_at = move, at
    parts.append(("meta", meta_move, meta_at))
    worst, where = 0.0, ""
    for name, move, at in parts:
        if move is not None and move > worst:
            worst, where = move, at if name == "meta" else f"{name}  {at}"
    return worst, where, structural, parts


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: diff_outputs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    root_a, root_b = map(Path, argv)
    files = sorted({p.relative_to(root).as_posix()
                    for root in (root_a, root_b)
                    for p in root.rglob("*") if p.is_file()})
    bad = False
    width = max((len(f) for f in files), default=0)
    for rel in files:
        a, b = root_a / rel, root_b / rel
        if not (a.is_file() and b.is_file()):
            where = root_a if a.is_file() else root_b
            print(f"{rel:{width}}  only in {where}")
            bad = True
            continue
        if a.read_bytes() == b.read_bytes():
            print(f"{rel:{width}}  identical")
            continue
        if a.suffix == ".json":
            worst, where, structural = diff_json(a, b)
        elif a.suffix == ".csv":
            worst, where, structural = diff_csv(a, b)
        elif a.suffix in _CACHE_SUFFIXES:
            worst, where, structural, parts = diff_cache(a, b)
        else:
            print(f"{rel:{width}}  differs")
            bad = True
            continue
        print(f"{rel:{width}}  {worst:.2e}  {where}")
        if a.suffix in _CACHE_SUFFIXES:
            name_w = max(len(name) for name, _, _ in parts)
            for name, move, at in parts:
                moved = "identical" if move is None else f"{move:.2e}  {at}"
                print(f"{'':{width}}  {name:{name_w}}  {moved}".rstrip())
        for line in structural:
            print(f"{'':{width}}  {line}")
        bad = bad or bool(structural)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
