#!/usr/bin/env python3
"""Keeps the README knob table and the environment knobs the code reads in
step. Two gates, both fatal:

1. **Undocumented knob** — every `"DBSP_*"` name that `src/` or `daemon/`
   reads (a string literal outside comments) must have a row in the knob
   table of README.md ("## Tuning", the `| Knob | Default | ... |` table).

2. **Dead row** — every name in that table must be read somewhere: by
   `src/`, `daemon/`, `bench/` or `examples/` (the bench harnesses and
   examples own the scale knobs such as `DBSP_SUBS`).

Usage: tools/check_env_knobs.py [repo_root]   (exit 0 = clean)
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

KNOB_LITERAL = re.compile(r'"(DBSP_[A-Z0-9_]+)"')
TABLE_ROW = re.compile(r"^\|\s*`(DBSP_[A-Z0-9_]+)`\s*\|")
LIBRARY_DIRS = ("src", "daemon")
READER_DIRS = ("src", "daemon", "bench", "examples")


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def knobs_read(root: Path, dirs: tuple[str, ...]) -> dict[str, set[str]]:
    """Knob name -> files (relative to root) that name it in code."""
    found: dict[str, set[str]] = {}
    for d in dirs:
        for path in sorted((root / d).rglob("*")):
            if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
                continue
            code = strip_comments(path.read_text(encoding="utf-8"))
            for name in KNOB_LITERAL.findall(code):
                found.setdefault(name, set()).add(str(path.relative_to(root)))
    return found


def table_knobs(readme: Path) -> list[str]:
    names: list[str] = []
    in_table = False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("| Knob |"):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                break
            match = TABLE_ROW.match(line)
            if match:
                names.append(match.group(1))
    return names


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent
    readme = root / "README.md"
    if not readme.is_file():
        print(f"check_env_knobs: no README.md under {root}", file=sys.stderr)
        return 2
    documented = table_knobs(readme)
    if not documented:
        print("check_env_knobs: README.md has no '| Knob |' table", file=sys.stderr)
        return 2

    errors: list[str] = []
    for name, files in sorted(knobs_read(root, LIBRARY_DIRS).items()):
        if name not in documented:
            errors.append(f"{name} is read by {', '.join(sorted(files))} "
                          f"but has no row in the README knob table")
    readers = knobs_read(root, READER_DIRS)
    for name in documented:
        if name not in readers:
            errors.append(f"{name} has a README knob-table row but no code "
                          f"in {', '.join(READER_DIRS)} reads it")

    if errors:
        print(f"check_env_knobs: {len(errors)} problem(s):", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    library = sorted(knobs_read(root, LIBRARY_DIRS))
    print(f"check_env_knobs: OK ({len(documented)} documented knobs; "
          f"src/ and daemon/ read {len(library)}: {', '.join(library)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
