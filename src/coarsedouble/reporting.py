"""Deterministic run reports: canonical JSON, CSV series, round-trips.

The canonical form excludes the meta section (timing, versions), so two
runs with identical inputs produce byte-identical canonical payloads.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Optional

SCHEMA = "coarse-double/1"


@dataclass
class RunReport:
    command: str
    results: dict
    expected: Optional[dict] = None
    mismatches: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)  # live Verdict objects
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def summary(self) -> dict:
        return self.results.get("summary", {})

    def to_json(self, include_meta: bool = True) -> dict:
        doc = {"schema": SCHEMA, "command": self.command, "results": self.results,
               "passed": self.passed}
        if self.expected is not None:
            doc["expected"] = self.expected
        if self.mismatches:
            doc["mismatches"] = self.mismatches
        if include_meta and self.meta:
            doc["meta"] = self.meta
        return doc

    def canonical_json(self) -> str:
        return canonical_dumps(self.to_json(include_meta=False))


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def pretty_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)


def diff_against(expected: dict, actual: dict) -> list:
    """Flat expected-vs-actual comparison; order-stable."""
    out = []
    for key in sorted(expected):
        if key not in actual:
            out.append({"key": key, "expected": expected[key], "actual": None})
        elif actual[key] != expected[key]:
            out.append({"key": key, "expected": expected[key], "actual": actual[key]})
    return out


def canonical_reload(doc: dict) -> str:
    """Round-trip: the canonical form of a parsed report, without its meta."""
    return canonical_dumps({k: v for k, v in doc.items() if k != "meta"})


def _walk_series(doc, path, rows):
    if isinstance(doc, dict):
        for k in sorted(doc):
            v = doc[k]
            if k == "series" and isinstance(v, list) and all(
                    isinstance(e, (list, tuple)) and len(e) == 2 for e in v):
                for n, val in v:
                    rows.append((path, n, val))
            else:
                _walk_series(v, f"{path}/{k}" if path else k, rows)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            _walk_series(v, f"{path}[{i}]", rows)


def report_to_csv(doc: dict) -> str:
    """Flatten every (n, value) series in the report into CSV rows."""
    rows = []
    _walk_series(doc, "", rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "n", "value"])
    for path, n, val in rows:
        writer.writerow([path, n, val])
    return buf.getvalue()
