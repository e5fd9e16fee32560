"""Record the canonical-JSON digest of every command line of cli-corpus.

The cli-corpus check compares each report, without its ``meta`` section,
against these digests.  Re-record them only in a change that states why
report content changed:

    python3 bench/record_digests.py
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402  (needs the library on sys.path)


def main():
    digests = {}
    for argv in workloads.cli_argvs():
        rc, stdout = workloads.run_cli(argv)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {rc}")
        digests[" ".join(argv)] = workloads.canonical_digest(stdout)
    path = BENCH / workloads.CLI_DIGESTS
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {path}")


if __name__ == "__main__":
    main()
