"""Deterministic run reports: canonical JSON, CSV series, round-trips.

The canonical form excludes the meta section (timing, versions), so two
runs with identical inputs produce byte-identical canonical payloads.
Reports reach the terminal through ``pretty_dumps``, the one indented
emitter: a small writer whose output is byte-identical to the standard
library's ``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)``,
which has no C encoder for ``indent`` before Python 3.14.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str
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

    def to_json(self) -> dict:
        doc = {"schema": SCHEMA, "command": self.command, "results": self.results,
               "passed": self.passed}
        if self.expected is not None:
            doc["expected"] = self.expected
        if self.mismatches:
            doc["mismatches"] = self.mismatches
        if self.meta:
            doc["meta"] = self.meta
        return doc


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def pretty_dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)``,
    byte for byte, with the same TypeError for a value or a dict key JSON
    cannot hold and for keys that do not sort (a cyclic document raises
    RecursionError in place of ValueError).

    The standard library call is not used: before Python 3.14 it has no C
    encoder for ``indent`` and runs pure-Python generators, which dominated
    the command line (``algebra atoms`` emits ~25k nodes).  This writer
    dispatches on ``type(o) is ...`` for the plain types, with one
    ``isinstance`` fallback for their subclasses (``IntEnum``, ``str``
    subclasses); it encodes strings with the C ``encode_basestring_ascii``,
    writes a list of scalars in one join and joins all pieces once.
    """
    text = _scalar_text(doc)
    if text is not None:
        return text
    out = []
    _write_container(doc, "\n", out)
    return "".join(out)


_INF = float("inf")


def _float_text(o) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


def _scalar_text(o):
    """The JSON text of a scalar, None for a list, tuple or dict; TypeError
    for anything else."""
    t = type(o)
    if t is str:
        return _encode_str(o)
    if t is int:
        return int.__repr__(o)
    if t is dict or t is list or t is tuple:
        return None
    # the other scalars and the subclasses, in the standard library's order
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    if isinstance(o, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key_text(k) -> str:
    if isinstance(k, str):
        return _encode_str(k)
    if isinstance(k, float):
        return _encode_str(_float_text(k))
    if k is True:
        return '"true"'
    if k is False:
        return '"false"'
    if k is None:
        return '"null"'
    if isinstance(k, int):
        return _encode_str(int.__repr__(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _write_container(o, nl: str, out: list) -> None:
    """Append the text of list, tuple or dict ``o`` whose own lines start
    with ``nl`` (a newline and the enclosing indent)."""
    inner = nl + "  "
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        texts = list(map(_scalar_text, o))
        if None not in texts:
            out.append("[" + inner + sep.join(texts) + nl + "]")
            return
        lead = "[" + inner
        for x, text in zip(o, texts):
            if text is None:
                out.append(lead)
                _write_container(x, inner, out)
            else:
                out.append(lead + text)
            lead = sep
        out.append(nl + "]")
        return
    if not o:
        out.append("{}")
        return
    lead = "{" + inner
    # sorted on the original keys, as the standard library sorts
    for k, v in sorted(o.items()):
        text = _scalar_text(v)
        if text is None:
            out.append(lead + _key_text(k) + ": ")
            _write_container(v, inner, out)
        else:
            out.append(lead + _key_text(k) + ": " + text)
        lead = sep
    out.append(nl + "}")


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
