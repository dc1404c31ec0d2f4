#!/usr/bin/env python3
"""Machine-enforced module layering for the dbsp source tree.

Replaces the old advisory grep in CI with a real checker over the include
graph. Three gates, all fatal:

1. **Module DAG** — every `#include "module/..."` edge inside `src/` must be
   declared in ALLOWED_DEPS below, which mirrors the "Depends on" column of
   the module map in docs/ARCHITECTURE.md. A new cross-module dependency is
   a one-line diff here *and* in the doc table — deliberate, reviewed, never
   accidental. The reverse holds too: a declared edge with no include
   behind it is stale and fails, so the table never claims a dependency
   the code dropped. The doc table itself is parsed and compared with
   ALLOWED_DEPS row by row, under one rule: its column leaves out
   `common` and `event` (the ids, values and events nearly every module
   uses) and names every other allowed module, nothing more.

2. **File-level acyclicity** — the concrete include graph of `src/` must be
   a DAG. The module graph alone cannot prove this: `scenario/` builds on
   the public umbrella (`dbsp/dbsp.hpp`) while the umbrella re-exports
   `scenario/workload_domain.hpp`, a sanctioned module-level back edge that
   is only sound because no *file* cycle exists. This gate keeps it that
   way.

3. **API surface** — `examples/` are end-user code: each example must
   include `dbsp/dbsp.hpp` and may include nothing else from the tree.
   (`tests/` and `bench/` intentionally reach into internals and are
   exempt.)

Usage: tools/check_layering.py [repo_root]   (exit 0 = clean)
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# Direct allowed dependencies per module (docs/ARCHITECTURE.md module map).
# A module may always include itself; nothing else is implicit.
ALLOWED_DEPS: dict[str, set[str]] = {
    "common": set(),
    # The metrics/tracing substrate: registry, histograms, exposition.
    # Depends only on common so every other module may instrument itself.
    "obs": {"common"},
    "event": {"common"},
    "subscription": {"common", "event"},
    "filter": {"common", "event", "subscription"},
    # routing/codec.hpp serializes trees for histogram/stats persistence.
    "selectivity": {"event", "subscription", "routing"},
    # Subscription aggregation: bounded per-dimension summaries + subgroup
    # clustering. Scores dimensions with selectivity's EventStats.
    "agg": {"common", "event", "subscription", "selectivity"},
    # routing/messages.hpp carries subgroup summaries (aggregated routing).
    "routing": {"common", "event", "subscription", "agg"},
    "core": {"common", "event", "subscription", "filter", "selectivity"},
    "broker": {"common", "event", "core", "routing", "agg"},
    "workload": {"common", "event", "subscription"},
    "experiment": {"common", "core", "selectivity", "broker", "workload", "api"},
    # scenario is built entirely on the public API: the umbrella header is
    # its only route to the engine — plus the net edge for the sockets
    # transport (it drives a NetServer over real loopback TCP).
    # core/filter/store are deliberately NOT allowed here.
    "scenario": {"common", "event", "subscription", "workload", "dbsp", "net"},
    "store": {"common", "event", "subscription", "core", "routing",
              "selectivity"},
    "api": {"common", "event", "subscription", "core", "selectivity", "store",
            "obs", "agg"},
    # The network edge of the daemon: wire protocol + epoll server + client.
    # Sits on the public facade (api) and the codec; nothing inside src/ may
    # include net except scenario's sockets transport — the daemon and CLI
    # mains live outside src/ in daemon/, and tests/bench are exempt.
    "net": {"common", "event", "subscription", "routing", "store", "api", "obs"},
    # The umbrella re-exports the public surface; it sits above everything.
    "dbsp": {
        "api", "broker", "common", "event", "routing", "scenario",
        "selectivity", "store", "subscription",
    },
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# Modules the module map's "Depends on" column never names.
UNLISTED_DEPS = {"common", "event"}
MAP_HEADER = "| Module | Contents | Depends on |"
MAP_ROW_RE = re.compile(r"^\|\s*`(\w+)/`\s*\|.*\|\s*(.*?)\s*\|\s*$")


def quoted_includes(path: Path) -> list[tuple[int, str]]:
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = INCLUDE_RE.match(line)
        if match:
            out.append((lineno, match.group(1)))
    return out


def check_module_dag(src: Path, errors: list[str]) -> None:
    used: dict[str, set[str]] = {module: set() for module in ALLOWED_DEPS}
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        module = path.relative_to(src).parts[0]
        if module not in ALLOWED_DEPS:
            errors.append(f"{path}: module '{module}' missing from "
                          f"ALLOWED_DEPS in tools/check_layering.py")
            continue
        for lineno, target in quoted_includes(path):
            target_module = target.split("/", 1)[0]
            if target_module not in ALLOWED_DEPS:
                continue  # not a module-qualified include (e.g. a local header)
            if target_module == module:
                continue
            used[module].add(target_module)
            if target_module not in ALLOWED_DEPS[module]:
                errors.append(
                    f"{path}:{lineno}: layering violation: '{module}' may not "
                    f"include '{target_module}/' (include \"{target}\"); allowed: "
                    f"{sorted(ALLOWED_DEPS[module]) or 'nothing'} — see the "
                    f"module map in docs/ARCHITECTURE.md")
    for module, allowed in ALLOWED_DEPS.items():
        for stale in sorted(allowed - used[module]):
            errors.append(
                f"stale edge: '{module}' declares a dependency on '{stale}/' "
                f"but no file in src/{module}/ includes it — drop it from "
                f"ALLOWED_DEPS and the module map in docs/ARCHITECTURE.md")


def documented_deps(doc: Path) -> dict[str, set[str]]:
    """The module map's "Depends on" column by module, without the
    parenthesized notes; '—' is the empty set."""
    lines = doc.read_text().splitlines()
    if MAP_HEADER not in lines:
        return {}
    rows: dict[str, set[str]] = {}
    for line in lines[lines.index(MAP_HEADER) + 2:]:
        match = MAP_ROW_RE.match(line)
        if not match:
            break
        cell = re.sub(r"\([^)]*\)", "", match.group(2))
        rows[match.group(1)] = {dep.strip() for dep in cell.split(",")} - {"", "—"}
    return rows


def check_module_map(root: Path, errors: list[str]) -> None:
    doc = root / "docs" / "ARCHITECTURE.md"
    rows = documented_deps(doc)
    if not rows:
        errors.append(f"{doc}: no module map table under '{MAP_HEADER}'")
        return
    for module, allowed in ALLOWED_DEPS.items():
        want = allowed - UNLISTED_DEPS
        if module not in rows:
            errors.append(f"{doc}: the module map has no row for '{module}/'")
        elif rows[module] != want:
            errors.append(
                f"{doc}: the module map's '{module}/' row lists "
                f"{sorted(rows[module]) or '—'} but ALLOWED_DEPS allows "
                f"{sorted(want) or '—'} (the column leaves out common and event)")
    for module in sorted(rows.keys() - ALLOWED_DEPS.keys()):
        errors.append(f"{doc}: the module map's '{module}/' row is not in ALLOWED_DEPS")


def check_file_acyclicity(src: Path, errors: list[str]) -> None:
    graph: dict[str, list[str]] = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = str(path.relative_to(src))
        graph[rel] = [target for _, target in quoted_includes(path)
                      if (src / target).is_file()]

    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    stack_trace: list[str] = []

    def visit(node: str) -> bool:
        color[node] = GRAY
        stack_trace.append(node)
        for dep in graph.get(node, ()):
            if color.get(dep, BLACK) == GRAY:
                cycle = stack_trace[stack_trace.index(dep):] + [dep]
                errors.append("include cycle: " + " -> ".join(cycle))
                return False
            if color.get(dep, BLACK) == WHITE and not visit(dep):
                return False
        stack_trace.pop()
        color[node] = BLACK
        return True

    for node in graph:
        if color[node] == WHITE and not visit(node):
            return  # one cycle is enough to fail; avoid cascading reports


def check_api_surface(root: Path, errors: list[str]) -> None:
    examples = root / "examples"
    if not examples.is_dir():
        return
    for path in sorted(examples.glob("*.cpp")):
        includes = [target for _, target in quoted_includes(path)]
        if "dbsp/dbsp.hpp" not in includes:
            errors.append(f"{path}: examples must include \"dbsp/dbsp.hpp\" "
                          f"(the public umbrella header)")
        for lineno, target in quoted_includes(path):
            if target != "dbsp/dbsp.hpp":
                errors.append(
                    f"{path}:{lineno}: examples are end-user code and may only "
                    f"include \"dbsp/dbsp.hpp\", not \"{target}\"")


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent
    src = root / "src"
    if not src.is_dir():
        print(f"check_layering: no src/ under {root}", file=sys.stderr)
        return 2

    errors: list[str] = []
    check_module_dag(src, errors)
    check_module_map(root, errors)
    check_file_acyclicity(src, errors)
    check_api_surface(root, errors)

    if errors:
        print(f"check_layering: {len(errors)} violation(s):", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print(f"check_layering: OK ({len(list(src.rglob('*.hpp')))} headers, "
          f"{len(list(src.rglob('*.cpp')))} sources, "
          f"{len(ALLOWED_DEPS)} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
