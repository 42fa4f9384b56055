#!/usr/bin/env python3
"""Compare two bench artifacts (BENCH_*.json) key by key.

Both files are flattened to dotted paths ("key_update.speedup",
"results.3.wall_ms"; array elements by index). Every path present in either
file is printed with its old value, its new value and, for numbers, the
ratio new/old. Paths missing on one side show "-".

Usage: bench_diff.py OLD.json NEW.json [--changed]
    --changed   print only paths whose value differs
Exit status: 0 on success (differences are reported, not failed),
2 when a file cannot be read or is not JSON.
"""

import argparse
import json
import sys

MISSING = object()  # path absent from one of the two files


def flatten(node, prefix="", out=None):
    """Maps dotted path -> leaf value, in document order."""
    if out is None:
        out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(value, prefix + "." + key if prefix else key, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            flatten(value, prefix + "." + str(i) if prefix else str(i), out)
    else:
        out[prefix] = node
    return out


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def render(value):
    if value is MISSING:
        return "-"
    return json.dumps(value)


def ratio(old, new):
    if not (is_number(old) and is_number(new)):
        return ""
    if old == 0:
        return "=" if new == 0 else "inf"
    return "%.3fx" % (new / old)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print("bench_diff: cannot read %s: %s" % (path, e), file=sys.stderr)
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--changed", action="store_true",
                        help="print only paths whose value differs")
    args = parser.parse_args()

    old_doc, new_doc = load(args.old), load(args.new)
    if old_doc is None or new_doc is None:
        return 2
    old, new = flatten(old_doc), flatten(new_doc)
    paths = list(old) + [p for p in new if p not in old]

    rows = [("path", "old", "new", "new/old")]
    for path in paths:
        a, b = old.get(path, MISSING), new.get(path, MISSING)
        if args.changed and a == b:
            continue
        rows.append((path, render(a), render(b), ratio(a, b)))
    if len(rows) == 1:
        print("no differences" if args.changed else "no keys")
        return 0
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    for path, a, b, r in rows:
        print("%-*s  %*s  %*s  %s" % (widths[0], path, widths[1], a,
                                      widths[2], b, r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
