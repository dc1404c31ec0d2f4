#!/usr/bin/env python3
"""Lint a Prometheus text exposition (dbspd's GET /metrics) and/or a
flight-recorder trace dump (dbspd's GET /traces).

Metrics checks, against one scrape (a URL or a file) and optionally a
second scrape of the same URL:

  * every exposed series parses as ``name{labels} value``;
  * metric and label names stay inside the Prometheus charset;
  * every family has exactly one ``# TYPE`` line, placed before its
    samples, with a known type;
  * histogram families expose ``_bucket`` series whose ``le`` counts are
    cumulative (non-decreasing, ending at ``+Inf`` == ``_count``);
  * counters never decrease between the two scrapes (monotonicity — the
    property Counter::sync_to exists to protect).

Trace checks (a target ending in ``/traces`` or ``.json``):

  * the document has the ``traces``/``recorded_total``/``dropped_total``
    shape with ids rendered as decimal strings;
  * span ``start_us`` offsets are monotone within each trace entry and
    bounded by the entry's duration;
  * span parent ids are referentially sound: each span's ``parent_span``
    is 0, the entry's propagated parent, or a sibling span of the entry.

Given both a metrics and a trace target, one cross-check ties them: every
span stage of a ``"sampled": true`` trace must have a
``dbsp_stage_us{stage=...}`` series, because head-sampled spans are what
that histogram family records. The trace dump is fetched before the
metrics, so every trace in it was recorded before the scrape.

Usage:
  check_metrics.py http://127.0.0.1:7412/metrics   # two scrapes, full lint
  check_metrics.py scrape.txt                      # single-scrape lint
  check_metrics.py http://127.0.0.1:7412/traces    # trace-dump lint
  check_metrics.py dump.json                       # trace-dump file lint
  check_metrics.py http://h:p/metrics http://h:p/traces   # both

Exit status: 0 clean, 1 lint findings, 2 scrape/read failure.
"""

from __future__ import annotations

import json
import re
import sys
import time
import urllib.request

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[^\s{]+)(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)(?:\s+\d+)?$"
)
LABEL_RE = re.compile(r'(?P<k>[^=,]+)="(?P<v>(?:[^"\\]|\\.)*)"')
KNOWN_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def fetch(target: str) -> str:
    if target.startswith("http://") or target.startswith("https://"):
        with urllib.request.urlopen(target, timeout=10) as resp:
            ctype = resp.headers.get("Content-Type", "")
            if "text/plain" not in ctype:
                raise RuntimeError(f"unexpected Content-Type: {ctype!r}")
            return resp.read().decode("utf-8")
    with open(target, encoding="utf-8") as f:
        return f.read()


def family_of(series_name: str) -> str:
    """The family a series belongs to (histogram suffixes stripped)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if series_name.endswith(suffix):
            return series_name[: -len(suffix)]
    return series_name


class Scrape:
    def __init__(self, text: str):
        self.types: dict[str, str] = {}
        # (name, sorted-label-tuple) -> float value
        self.samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
        self.errors: list[str] = []
        self.order_errors: list[str] = []
        seen_samples: set[str] = set()
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line or line.startswith("# HELP"):
                continue
            if line.startswith("# TYPE"):
                parts = line.split()
                if len(parts) != 4:
                    self.errors.append(f"line {lineno}: malformed TYPE line")
                    continue
                _, _, fam, typ = parts
                if typ not in KNOWN_TYPES:
                    self.errors.append(f"line {lineno}: unknown type '{typ}'")
                if fam in self.types:
                    self.errors.append(f"line {lineno}: duplicate TYPE for '{fam}'")
                if fam in seen_samples:
                    self.order_errors.append(
                        f"line {lineno}: TYPE for '{fam}' after its samples")
                self.types[fam] = typ
                continue
            if line.startswith("#"):
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                self.errors.append(f"line {lineno}: unparseable sample: {line!r}")
                continue
            name = m.group("name")
            if not METRIC_NAME_RE.match(name):
                self.errors.append(f"line {lineno}: bad metric name '{name}'")
                continue
            labels = []
            if m.group("labels"):
                for lm in LABEL_RE.finditer(m.group("labels")):
                    k = lm.group("k")
                    if not LABEL_NAME_RE.match(k):
                        self.errors.append(
                            f"line {lineno}: bad label name '{k}' on '{name}'")
                    labels.append((k, lm.group("v")))
            try:
                value = float(m.group("value"))
            except ValueError:
                self.errors.append(
                    f"line {lineno}: non-numeric value on '{name}'")
                continue
            key = (name, tuple(sorted(labels)))
            if key in self.samples:
                self.errors.append(f"line {lineno}: duplicate series {key}")
            self.samples[key] = value
            seen_samples.add(family_of(name))
        self.check_families()

    def check_families(self) -> None:
        untyped = set()
        for (name, _labels) in self.samples:
            fam = family_of(name)
            if fam not in self.types and name not in self.types:
                untyped.add(name)
        for name in sorted(untyped):
            self.errors.append(f"series '{name}' has no TYPE line")
        # Histogram coherence: cumulative le buckets ending at +Inf==count.
        for fam, typ in self.types.items():
            if typ != "histogram":
                continue
            groups: dict[tuple[tuple[str, str], ...], dict[float, float]] = {}
            for (name, labels), value in self.samples.items():
                if name != fam + "_bucket":
                    continue
                le = None
                rest = []
                for k, v in labels:
                    if k == "le":
                        le = float("inf") if v == "+Inf" else float(v)
                    else:
                        rest.append((k, v))
                if le is None:
                    self.errors.append(f"'{fam}_bucket' sample without le")
                    continue
                groups.setdefault(tuple(rest), {})[le] = value
            for rest, buckets in groups.items():
                bounds = sorted(buckets)
                counts = [buckets[b] for b in bounds]
                if any(b > a + 1e-9 for a, b in zip(counts[1:], counts)):
                    self.errors.append(
                        f"'{fam}' {dict(rest)}: buckets not cumulative")
                if bounds and bounds[-1] != float("inf"):
                    self.errors.append(f"'{fam}' {dict(rest)}: no +Inf bucket")
                total = self.samples.get((fam + "_count", tuple(sorted(rest))))
                if total is not None and counts and counts[-1] != total:
                    self.errors.append(
                        f"'{fam}' {dict(rest)}: +Inf bucket {counts[-1]} != "
                        f"_count {total}")


DECIMAL_ID_RE = re.compile(r"^\d+$")


def fetch_json(target: str) -> dict:
    if target.startswith("http://") or target.startswith("https://"):
        with urllib.request.urlopen(target, timeout=10) as resp:
            ctype = resp.headers.get("Content-Type", "")
            if "json" not in ctype:
                raise RuntimeError(f"unexpected Content-Type: {ctype!r}")
            return json.loads(resp.read().decode("utf-8"))
    with open(target, encoding="utf-8") as f:
        return json.load(f)


def check_id(errors: list[str], where: str, key: str, value) -> str | None:
    """Ids travel as decimal strings (u64 overflows a double-parsing JSON
    reader). Returns the id, or None after reporting."""
    if not isinstance(value, str) or not DECIMAL_ID_RE.match(value):
        errors.append(f"{where}: {key} is {value!r}, want a decimal string")
        return None
    return value


def check_traces(doc) -> list[str]:
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["trace document is not a JSON object"]
    for key in ("traces", "recorded_total", "dropped_total"):
        if key not in doc:
            errors.append(f"trace document missing '{key}'")
    traces = doc.get("traces", [])
    if not isinstance(traces, list):
        return errors + ["'traces' is not a list"]
    for key in ("recorded_total", "dropped_total"):
        total = doc.get(key, 0)
        if not isinstance(total, int) or total < 0:
            errors.append(f"'{key}' is {total!r}, want a non-negative integer")
    if isinstance(doc.get("recorded_total"), int) and len(traces) > doc["recorded_total"]:
        errors.append(
            f"{len(traces)} trace entries exceed recorded_total "
            f"{doc['recorded_total']}")
    for i, trace in enumerate(traces):
        where = f"traces[{i}]"
        if not isinstance(trace, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("trace_id", "parent_span", "sampled", "start_unix_us",
                    "duration_us", "spans"):
            if key not in trace:
                errors.append(f"{where}: missing '{key}'")
        trace_id = check_id(errors, where, "trace_id", trace.get("trace_id", ""))
        if trace_id == "0":
            errors.append(f"{where}: trace_id 0 (the no-trace sentinel)")
        trace_parent = check_id(
            errors, where, "parent_span", trace.get("parent_span", "0"))
        if not isinstance(trace.get("sampled"), bool):
            errors.append(f"{where}: 'sampled' is not a bool")
        spans = trace.get("spans", [])
        if not isinstance(spans, list):
            errors.append(f"{where}: 'spans' is not a list")
            continue
        span_ids = set()
        for j, span in enumerate(spans):
            if isinstance(span, dict):
                sid = check_id(errors, f"{where}.spans[{j}]", "span_id",
                               span.get("span_id", ""))
                if sid is not None:
                    span_ids.add(sid)
        prev_start = -1
        for j, span in enumerate(spans):
            swhere = f"{where}.spans[{j}]"
            if not isinstance(span, dict):
                errors.append(f"{swhere}: not an object")
                continue
            stage = span.get("stage")
            if not isinstance(stage, str) or not stage:
                errors.append(f"{swhere}: missing stage name")
            for key in ("start_us", "duration_us", "detail"):
                v = span.get(key)
                if not isinstance(v, int) or v < 0:
                    errors.append(
                        f"{swhere}: '{key}' is {v!r}, want a non-negative "
                        "integer")
            start = span.get("start_us")
            if isinstance(start, int):
                if start < prev_start:
                    errors.append(
                        f"{swhere}: start_us {start} after a span starting at "
                        f"{prev_start} (spans must be sorted by offset)")
                prev_start = max(prev_start, start)
            parent = check_id(errors, swhere, "parent_span",
                              span.get("parent_span", "0"))
            if parent is not None and parent != "0" and parent != trace_parent \
                    and parent not in span_ids:
                errors.append(
                    f"{swhere}: parent_span {parent} is neither 0, the "
                    "entry's propagated parent, nor a sibling span id")
    return errors


def is_traces_target(target: str) -> bool:
    return target.rstrip("/").endswith("/traces") or target.endswith(".json")


def run_traces(target: str) -> tuple[int, dict | None]:
    try:
        doc = fetch_json(target)
    except Exception as e:  # noqa: BLE001 - report and exit
        print(f"check_metrics: trace fetch failed: {e}", file=sys.stderr)
        return 2, None
    errors = check_traces(doc)
    n = len(doc.get("traces", [])) if isinstance(doc, dict) else 0
    spans = sum(len(t.get("spans", [])) for t in doc.get("traces", [])
                if isinstance(t, dict)) if isinstance(doc, dict) else 0
    print(f"check_metrics: {n} trace entries, {spans} spans, "
          f"recorded_total={doc.get('recorded_total')}, "
          f"dropped_total={doc.get('dropped_total')}")
    for e in errors:
        print(f"check_metrics: {e}", file=sys.stderr)
    return (1 if errors else 0), doc


def run_metrics(target: str) -> tuple[int, Scrape | None]:
    try:
        first = Scrape(fetch(target))
    except Exception as e:  # noqa: BLE001 - report and exit
        print(f"check_metrics: scrape failed: {e}", file=sys.stderr)
        return 2, None
    errors = list(first.errors) + list(first.order_errors)

    if target.startswith("http"):
        time.sleep(0.2)
        try:
            second = Scrape(fetch(target))
        except Exception as e:  # noqa: BLE001
            print(f"check_metrics: second scrape failed: {e}", file=sys.stderr)
            return 2, None
        errors += second.errors + second.order_errors
        # Counter monotonicity across the two scrapes.
        for key, before in first.samples.items():
            name, _labels = key
            fam = family_of(name)
            typ = first.types.get(fam) or first.types.get(name)
            is_monotone = typ == "counter" or (
                typ == "histogram" and not name.endswith("_sum"))
            if not is_monotone:
                continue
            after = second.samples.get(key)
            if after is not None and after < before:
                errors.append(
                    f"counter '{key}' decreased between scrapes: "
                    f"{before} -> {after}")
        print(f"check_metrics: {len(second.samples)} series, "
              f"{len(second.types)} families, 2 scrapes")
        first = second
    else:
        print(f"check_metrics: {len(first.samples)} series, "
              f"{len(first.types)} families, 1 scrape")

    for e in errors:
        print(f"check_metrics: {e}", file=sys.stderr)
    return (1 if errors else 0), first


def check_stage_series(doc: dict, scrape: Scrape) -> list[str]:
    """Every span stage of a head-sampled trace has a dbsp_stage_us series."""
    exposed = {dict(labels).get("stage") for (name, labels) in scrape.samples
               if name == "dbsp_stage_us_count"}
    missing = set()
    for trace in doc.get("traces", []):
        if not isinstance(trace, dict) or trace.get("sampled") is not True:
            continue
        for span in trace.get("spans", []):
            stage = span.get("stage") if isinstance(span, dict) else None
            if isinstance(stage, str) and stage not in exposed:
                missing.add(stage)
    return [f"sampled span stage '{stage}' has no dbsp_stage_us series"
            for stage in sorted(missing)]


def main() -> int:
    targets = sys.argv[1:]
    if not targets or len(targets) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    status = 0
    doc = scrape = None
    # Traces first: see the module docstring's cross-check.
    for target in sorted(targets, key=lambda t: not is_traces_target(t)):
        if is_traces_target(target):
            rc, doc = run_traces(target)
        else:
            rc, scrape = run_metrics(target)
        status = max(status, rc)
    if isinstance(doc, dict) and scrape is not None:
        errors = check_stage_series(doc, scrape)
        for e in errors:
            print(f"check_metrics: {e}", file=sys.stderr)
        if errors:
            status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
