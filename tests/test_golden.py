"""Golden outputs: every recorded command line gives its recorded report.

Each key of ``bench/cli_digests.json`` (the benchmark's cli-corpus) and of
``tests/golden_digests.json`` is a command line, run in process through
``cli.main`` as ``key.split()``.  It must exit 0, its report without
``meta`` must hash to the recorded digest (sha256 of the compact JSON with
sorted keys, as ``bench/workloads.py``'s ``canonical_digest`` computes it),
and each certified verdict in it, rebuilt from its JSON alone, must pass
``revalidate``.  The digest files are only read here.  A change that alters
a report re-records the benchmark's digests with
``python3 bench/record_digests.py`` (and this file's own by hand) and says
why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from coarsedouble.cli import main

from conftest import assert_revalidates

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = {**json.loads((ROOT / "bench" / "cli_digests.json").read_text(encoding="utf-8")),
           **json.loads((ROOT / "tests" / "golden_digests.json").read_text(encoding="utf-8"))}


def _digest(doc):
    doc = {k: v for k, v in doc.items() if k != "meta"}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_digests_found():
    assert len(DIGESTS) >= 44 and "scenario run measure-demo" in DIGESTS


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_report_matches_its_recorded_digest(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0, f"{command}: exit {code}"
    doc = json.loads(out)
    got = _digest(doc)
    assert got == DIGESTS[command], \
        f"{command}: digest {got} differs from the recorded {DIGESTS[command]}"
    assert_revalidates(doc)
