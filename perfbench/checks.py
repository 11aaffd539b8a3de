"""Output checks for the benchmark's commands.

Every command's exit code and stdout were recorded from a known-good
commit into ``expected/``.  Two kinds of check use them:

* ``exact``: stdout must be byte-identical to the recording.  Used for
  ``verify``, ``scan`` and ``profile``, whose reports are fully determined.
* ``classes``: for ``enumerate`` and ``oracle``, whose graph6
  representatives may legitimately change when canonical labelling
  changes.  The check compares only content that does not depend on the
  representative: trailers, the ``n,edges,max_count,density`` columns, the
  number of maximizers per row, and the set of isomorphism classes.  The
  classes are computed here, by brute force, with no flagcert code, and
  each distinct stdout is classified once per run (cached by its digest).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
MANIFEST = EXPECTED_DIR / "manifest.json"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# brute-force isomorphism classes


def parse_graph6(text: str) -> tuple[int, list[int]]:
    """(n, adjacency rows as bitmasks) of a graph6 string, orders 1..62."""
    n = ord(text[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 order {n} out of range in {text!r}")
    m = n * (n - 1) // 2
    body = text[1:]
    if len(body) != (m + 5) // 6:
        raise ValueError(f"graph6 body length wrong in {text!r}")
    bits = []
    for c in body:
        v = ord(c) - 63
        if not 0 <= v < 64:
            raise ValueError(f"graph6 byte out of range in {text!r}")
        bits.extend(v >> s & 1 for s in range(5, -1, -1))
    if any(bits[m:]):
        raise ValueError(f"nonzero graph6 padding in {text!r}")
    rows = [0] * n
    t = 0
    for j in range(n):  # graph6 lists the upper triangle column by column
        for i in range(j):
            if bits[t]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            t += 1
    return n, rows


def canonical_key(n: int, rows: list[int]) -> tuple[int, int]:
    """A complete isomorphism invariant: (n, least adjacency code).

    The minimum runs over every vertex order that sorts vertices by the
    invariant (degree, sorted neighbour degrees); that set of orders is
    mapped onto itself by isomorphisms, so the minimum is canonical.
    """
    deg = [r.bit_count() for r in rows]
    inv = [
        (deg[v], tuple(sorted(deg[u] for u in range(n) if rows[v] >> u & 1)))
        for v in range(n)
    ]
    cells = [
        [v for v in range(n) if inv[v] == key] for key in sorted(set(inv))
    ]
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        order = [v for part in parts for v in part]
        code = 0
        for j in range(n):
            rj = rows[order[j]]
            for i in range(j):
                code = code << 1 | rj >> order[i] & 1
        if best is None or code < best:
            best = code
    return n, best


def class_of(graph6: str) -> str:
    n, code = canonical_key(*parse_graph6(graph6))
    return f"{n}:{code:x}"


def summarize(kind: str, stdout: bytes) -> dict:
    """The representative-independent content of an enumerate/oracle report."""
    lines = stdout.decode("ascii").splitlines()
    if kind == "enumerate":
        classes = sorted({class_of(g) for g in lines[:-1]})
        return {
            "trailer": lines[-1],
            "graphs": len(lines) - 1,
            "classes": len(classes),
            "class_set": digest("\n".join(classes).encode()),
        }
    if kind == "oracle":
        header, body, trailers = lines[0], lines[1:-2], lines[-2:]
        rows = []
        for line in body:
            n, edges, max_count, density, names = line.split(",")
            reps = names.split(";")
            rows.append(
                [n, edges, max_count, density, len(reps),
                 sorted({class_of(g) for g in reps})]
            )
        return {"header": header, "rows": rows, "trailers": trailers}
    raise ValueError(f"no summary for {kind!r}")


# ---------------------------------------------------------------------------
# the checker


class Checker:
    """Judges (case, exit code, stdout) against the recorded expectations."""

    def __init__(self, manifest: dict):
        self.manifest = manifest
        self.exact = {
            case: (EXPECTED_DIR / want["file"]).read_bytes()
            for case, want in manifest.items()
            if want["check"] == "exact"
        }
        self.verdicts: dict[str, bool] = {}  # "case:stdout digest" -> verdict

    @classmethod
    def load(cls) -> "Checker":
        return cls(json.loads(MANIFEST.read_text()))

    def ok(self, case: str, rc: int, stdout: bytes) -> bool:
        want = self.manifest[case]
        if rc != want["exit"]:
            return False
        if want["check"] == "exact":
            return stdout == self.exact[case]
        key = f"{case}:{digest(stdout)}"
        if key not in self.verdicts:
            try:
                good = summarize(want["kind"], stdout) == want["summary"]
            except (ValueError, IndexError):
                good = False
            self.verdicts[key] = good
        return self.verdicts[key]
