"""Record the expected output of every benchmark command.

    python3 perfbench/record.py

Runs each command any seed can produce through the current program and
writes ``expected/``: the exit code and exact stdout of ``verify``,
``scan`` and ``profile``, and the representative-independent summary of
``enumerate`` and ``oracle`` (see checks.py).  Run it only at a commit
whose outputs are known to be right; the benchmark judges every later
commit against what it writes.
"""

from __future__ import annotations

import json
import sys

from checks import EXPECTED_DIR, MANIFEST, summarize
from run import every_command, run_child

CLASS_CHECKED = ("enumerate", "oracle")


def main() -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    manifest = {}
    for case, cmd in every_command().items():
        r = run_child([sys.executable, "-m", "flagcert.cli", *cmd.args], cmd.stdin())
        kind = cmd.args[0]
        if kind in CLASS_CHECKED:
            manifest[case] = {
                "exit": r.rc,
                "check": "classes",
                "kind": kind,
                "summary": summarize(kind, r.stdout),
            }
        else:
            (EXPECTED_DIR / f"{case}.out").write_bytes(r.stdout)
            manifest[case] = {"exit": r.rc, "check": "exact", "file": f"{case}.out"}
        print(f"{case}: exit {r.rc}, {len(r.stdout)} bytes")
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
