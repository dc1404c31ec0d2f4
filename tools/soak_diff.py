#!/usr/bin/env python3
"""Compare two scenario_soak JSON reports and exit 1 when they differ.

A soak is deterministic apart from its timings, so two runs of one
configuration (or of two revisions that should behave alike) must agree on
everything else: the config, per-phase counts, maintenance counters and the
counter and gauge values of each run's metrics scrape. Ignored, because they
carry wall or CPU time:

- keys ending in `_seconds` or `_per_sec`, and `scrape_cost_us`;
- histogram series of the metrics scrapes (their buckets are latencies).

Usage: tools/soak_diff.py A.json B.json   (exit 0 = equal, 1 = different,
2 = bad input). Prints one line per difference, with its JSON path.
"""

from __future__ import annotations

import json
import sys

IGNORED_SUFFIXES = ("_seconds", "_per_sec")
IGNORED_KEYS = {"scrape_cost_us"}
MAX_PRINTED = 40


def ignored_key(key: str) -> bool:
    return key in IGNORED_KEYS or key.endswith(IGNORED_SUFFIXES)


def is_histogram(value: object) -> bool:
    return isinstance(value, dict) and value.get("type") == "histogram"


def label(index: int, value: object) -> str:
    """Path step of a list element: metric entries are named by metric."""
    if isinstance(value, dict) and "name" in value:
        return f"[{value['name']}]"
    return f"[{index}]"


def diff(a: object, b: object, path: str, out: list[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if ignored_key(key):
                continue
            if key not in a or key not in b:
                out.append(f"{path}.{key}: only in {'B' if key not in a else 'A'}")
                continue
            diff(a[key], b[key], f"{path}.{key}", out)
    elif isinstance(a, list) and isinstance(b, list):
        a = [v for v in a if not is_histogram(v)]
        b = [v for v in b if not is_histogram(v)]
        if len(a) != len(b):
            out.append(f"{path}: {len(a)} vs {len(b)} entries")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, path + label(i, x), out)
    elif a != b:
        out.append(f"{path}: {a!r} vs {b!r}")


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: tools/soak_diff.py A.json B.json", file=sys.stderr)
        return 2
    try:
        reports = [json.load(open(p, encoding="utf-8")) for p in argv[1:]]
    except (OSError, json.JSONDecodeError) as e:
        print(f"soak_diff: {e}", file=sys.stderr)
        return 2
    out: list[str] = []
    diff(reports[0], reports[1], "$", out)
    for line in out[:MAX_PRINTED]:
        print(line)
    if len(out) > MAX_PRINTED:
        print(f"... {len(out) - MAX_PRINTED} more")
    if out:
        print(f"soak_diff: {len(out)} difference(s) between {argv[1]} and {argv[2]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
