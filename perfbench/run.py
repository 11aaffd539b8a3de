#!/usr/bin/env python3
"""The flagcert benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  Each command is a fresh
interpreter running ``python -m flagcert.cli`` with ``src`` on the path, the
way a user runs the CLI.  The load is a closed loop with one client: one
command at a time, from one process.  ``FLAGCERT_THREADS`` is removed from
the children's environment, so every command uses one worker.

A run starts with one warm-up pass of the workload's commands whose times
are discarded (it leaves the ``.pyc`` files an installed package has), then
repeats passes until ``--seconds``, warm-up included, is spent.  In a ``--trace 0``
run, fresh interpreters time ``import flagcert.cli`` (set-up) before each
pass.  Every output is checked against ``expected/``.
With ``--trace 1`` each untraced pass is followed by the same pass through
``shim.py``, which records spans at the layer boundaries; the per-layer
metrics come from those spans and the tracing overhead is the difference
between the two.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIM = HERE / "shim.py"
WORK = ROOT / ".bench_build" / "perfbench"  # stderr captures and span dumps

sys.path.insert(0, str(HERE))
from checks import Checker  # noqa: E402

SETUP_PER_PASS = 2  # timed imports before each trace-0 pass; the median is setup_s

# Seeded choices.  Each set holds inputs whose expected outcome is known
# and recorded, so a seed changes the input but never the verdict.
#
# k4.cert's 3x3 Gram matrix has a positive diagonal; negating any one
# diagonal entry makes it indefinite, so the mutant is always refuted
# (exit 1, "matrix is not PSD").  It reaches the PSD check's failure
# branch, which none of the bundled certificates does.
K4_DIAGONAL = (0, 1, 2)
# appendixA's psd-condition polynomial has its largest root near 4.11306
# and every deficit polynomial is nonnegative on [4, oo), so each k0 here
# is refuted by the psd-condition line alone and runs the same Sturm code
# down the failing branch.
REFUTING_K0 = ("4", "81/20", "41/10", "4111/1000")


@dataclass(frozen=True)
class Command:
    metric: str  # per-command wall-time metric
    case: str  # key into expected/manifest.json
    args: tuple[str, ...]
    k4_entry: int | None = None  # stdin is k4.cert with this diagonal entry negated

    def stdin(self) -> str | None:
        return None if self.k4_entry is None else k4_mutant(self.k4_entry)


def k4_mutant(entry: int) -> str:
    """k4.cert with diagonal entry ``entry`` of its square block negated."""
    lines = (SRC / "flagcert" / "certs" / "k4.cert").read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith("row:")]
    i = rows[entry]
    cells = [c.strip() for c in lines[i][len("row:"):].split(";")]
    cell = cells[entry]
    cells[entry] = cell[1:] if cell.startswith("-") else "-" + cell
    lines[i] = "row: " + " ; ".join(cells)
    return "\n".join(lines) + "\n"


# Why each workload exists (layer shares from traced runs at the seed):
# * certify-numeric: the numeric certificates.  The flags count tables and
#   lifts dominate, canonical forms in graphs come second, and no Sturm
#   work happens, so it isolates the flags layer.
# * certify-parametric: appendixA at its declared k0 and refuted below it.
#   Sturm root isolation in exactmath dominates, so it isolates exactmath;
#   the refutation keeps the failing branch of the same code measured.
# * exhaust: enumeration, the max-density oracle, the inequality scan and
#   the profile curve.  Canonical forms in graphs dominate; flags and
#   exactmath do no work, so it is the no-change control for them.
WORKLOADS = ("certify-numeric", "certify-parametric", "exhaust")

K221 = "2 2 2 1 1 2 2 2 2 2"  # the K_{2,2,1} pattern as a pair code


def certify_numeric(entry: int) -> list[Command]:
    return [
        Command("verify_k3_s", "verify_k3", ("verify", "--cert", "k3.cert")),
        Command("verify_k4_s", "verify_k4", ("verify", "--cert", "k4.cert")),
        Command(
            "verify_lemma074_s", "verify_lemma074",
            ("verify", "--cert", "lemma074.cert", "--golden", "appendixB.golden"),
        ),
        Command(
            "refute_numeric_s", f"refute_k4_diag{entry}",
            ("verify", "--cert", "-"), entry,
        ),
    ]


def certify_parametric(k0: str) -> list[Command]:
    return [
        Command(
            "verify_appendixA_s", "verify_appendixA",
            ("verify", "--cert", "appendixA.cert", "--golden", "appendixC.golden"),
        ),
        Command(
            "refute_appendixA_s", "refute_appendixA_k0_" + k0.replace("/", "_"),
            ("verify", "--cert", "appendixA.cert", "--k0", k0),
        ),
    ]


def exhaust() -> list[Command]:
    return [
        Command("enumerate7_s", "enumerate7", ("enumerate", "--order", "7", "--graph6")),
        Command("oracle7_s", "oracle7", ("oracle", "--h", K221, "--n", "7")),
        Command("scan60_s", "scan60", ("scan", "--k", "3,7/2,4,5,10", "--nmax", "60")),
        # the grid holds every row of profile_curve.golden
        Command("profile_s", "profile", ("profile", "--from", "0", "--to", "1", "--step", "1/300")),
    ]


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's commands, with the seed's choice of input."""
    rng = random.Random(seed)
    if workload == "certify-numeric":
        return certify_numeric(rng.choice(K4_DIAGONAL))
    if workload == "certify-parametric":
        return certify_parametric(rng.choice(REFUTING_K0))
    if workload == "exhaust":
        return exhaust()
    raise ValueError(f"unknown workload {workload!r}")


def every_command() -> dict[str, Command]:
    """Every command any seed can produce, by case."""
    cmds = [c for e in K4_DIAGONAL for c in certify_numeric(e)]
    cmds += [c for k0 in REFUTING_K0 for c in certify_parametric(k0)]
    cmds += exhaust()
    return {c.case: c for c in cmds}


ALL_COMMAND_METRICS = tuple(dict.fromkeys(c.metric for c in every_command().values()))


# ---------------------------------------------------------------------------
# children


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FLAGCERT_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Result:
    rc: int
    stdout: bytes
    seconds: float
    maxrss_kb: int
    stderr: bytes


def run_child(argv: list[str], stdin: str | None = None) -> Result:
    """Run one child to completion; wall time and its own max RSS."""
    WORK.mkdir(parents=True, exist_ok=True)
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
        )
        try:
            if stdin is not None:  # a certificate is far below the pipe buffer
                proc.stdin.write(stdin.encode())
                proc.stdin.close()
            out = proc.stdout.read()
            # wait4, not wait(): it returns this child's own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return Result(proc.returncode, out, seconds, usage.ru_maxrss, err_path.read_bytes())


@dataclass
class Pass:
    results: list[Result]
    wall: float
    dumps: list[dict] = field(default_factory=list)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.maxrss_kb for r in self.results) / 1024


def run_pass(cmds: list[Command], traced: bool = False) -> Pass:
    results, dump_paths = [], []
    t0 = time.perf_counter()
    for i, cmd in enumerate(cmds):
        if traced:
            dump = WORK / f"spans{i}.json"
            dump.unlink(missing_ok=True)  # never read a previous pass's spans
            dump_paths.append(dump)
            argv = [sys.executable, str(SHIM), str(dump), "--", *cmd.args]
        else:
            argv = [sys.executable, "-m", "flagcert.cli", *cmd.args]
        results.append(run_child(argv, cmd.stdin()))
    wall = time.perf_counter() - t0
    dumps = [json.loads(p.read_text()) for p in dump_paths]
    return Pass(results, wall, dumps)


# ---------------------------------------------------------------------------
# metrics: (name, unit, better).  BENCHMARK.json lists the same names.

END_TO_END = (
    ("setup_s", "s", "lower"),  # fresh interpreter running import flagcert.cli
    ("wall_s", "s", "lower"),  # one pass of the workload's commands, back to back
    ("peak_rss_mb", "MB", "lower"),  # the largest child max-RSS in a pass
)

LAYERS = ("graphs", "flags", "exactmath", "certificates", "oracle", "constructions", "cli")

PER_LAYER = (
    ("graphs.canon_calls", "count", "lower"),
    ("graphs.canon_computed", "count", "lower"),
    ("graphs.canon_s", "s", "lower"),
    ("graphs.enumerate_s", "s", "lower"),
    ("graphs.count_induced_calls", "count", "lower"),
    ("graphs.count_induced_s", "s", "lower"),
    ("graphs.cache_entries", "count", "lower"),
    ("flags.lift_calls", "count", "lower"),
    ("flags.lift_s", "s", "lower"),
    ("flags.lift_identity_ratio", "ratio", "lower"),
    ("flags.induced_density_calls", "count", "lower"),
    ("flags.tables_s", "s", "lower"),
    ("flags.cache_entries", "count", "lower"),
    ("exactmath.sturm_chains", "count", "lower"),
    ("exactmath.isolate_calls", "count", "lower"),
    ("exactmath.isolate_s", "s", "lower"),
    ("exactmath.chains_per_isolation", "ratio", "lower"),
    ("exactmath.ray_checks_s", "s", "lower"),
    ("exactmath.psd_calls", "count", "lower"),
    ("exactmath.psd_s", "s", "lower"),
    ("certificates.parse_s", "s", "lower"),
    ("certificates.expansion_s", "s", "lower"),
    ("certificates.golden_s", "s", "lower"),
    ("oracle.scan_s", "s", "lower"),
    ("oracle.scan_triples", "count", "higher"),
    ("oracle.scan_triples_per_s", "1/s", "higher"),
    ("oracle.search_s", "s", "lower"),
    ("oracle.search_hosts", "count", "higher"),
    ("constructions.profile_s", "s", "lower"),
    ("constructions.points", "count", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.overhead_s", "s", "lower"),
    # untraced per-command wall times; 0 where the workload lacks the command
    *((f"cmd.{m}", "s", "lower") for m in ALL_COMMAND_METRICS),
)


# ---------------------------------------------------------------------------
# per-layer roll-up of one traced command


def rollup(dump: dict) -> dict[str, float]:
    """Layer counts and times of one traced command.

    A span's self time is its duration minus the durations of its direct
    children.  ``covered`` sums the spans of a group that have no ancestor
    in the group, so nested calls within the group are not counted twice.
    """
    names = [dump["names"][s[0]] for s in dump["spans"]]
    parents = [s[3] for s in dump["spans"]]
    dur = [s[2] - s[1] for s in dump["spans"]]
    child = [0.0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]

    def calls(name: str) -> int:
        return sum(1 for n in names if n == name)

    def covered(*group: str) -> float:
        inside = [False] * len(names)
        total = 0.0
        for i, (n, p) in enumerate(zip(names, parents)):
            inside[i] = p >= 0 and (inside[p] or names[p] in group)
            if n in group and not inside[i]:
                total += dur[i]
        return total

    caches = dump["caches"]
    counters = dump["counters"]
    out = {
        "graphs.canon_calls": calls("graphs._min_code"),
        "graphs.canon_computed": caches["graphs._min_code_cached"][1],
        "graphs.canon_s": covered("graphs._min_code"),
        "graphs.enumerate_s": covered("graphs.enumerate_graphs", "graphs._enumerate_unchecked"),
        "graphs.count_induced_calls": calls("graphs.count_induced"),
        "graphs.count_induced_s": covered("graphs.count_induced"),
        "graphs.cache_entries": sum(c[3] for k, c in caches.items() if k.startswith("graphs.")),
        "flags.lift_calls": calls("flags.lift"),
        "flags.lift_identity": counters.get("flags.lift_identity", 0),
        "flags.lift_s": covered("flags.lift"),
        "flags.induced_density_calls": sum(
            1 for n, p in zip(names, parents)
            if n == "graphs.induced_density" and p >= 0 and names[p].startswith("flags.")
        ),
        "flags.tables_s": covered("flags.expand_quadratic_form", "flags.bilinear_expansion"),
        "flags.cache_entries": sum(c[3] for k, c in caches.items() if k.startswith("flags.")),
        "exactmath.sturm_chains": calls("exactmath.sturm_chain"),
        "exactmath.isolate_calls": calls("exactmath.isolate_largest_real_root"),
        "exactmath.isolate_s": covered("exactmath.isolate_largest_real_root"),
        "exactmath.ray_checks_s": covered(
            "exactmath.nonneg_on_ray", "exactmath.positive_on_ray", "exactmath.rf_nonneg_on_ray"
        ),
        "exactmath.psd_calls": calls("exactmath.psd_check"),
        "exactmath.psd_s": covered("exactmath.psd_check"),
        "certificates.parse_s": covered("certificates.load_certificate", "certificates.parse_certificate"),
        "certificates.expansion_s": covered("certificates.certificate_expansion"),
        "certificates.golden_s": covered("certificates.load_golden", "certificates.compare_with_golden"),
        "oracle.scan_s": covered("oracle.want_inequality_scan"),
        "oracle.scan_triples": counters.get("oracle.scan_triples", 0),
        "oracle.search_s": covered("oracle.max_density_search", "oracle.max_density_table"),
        "oracle.search_hosts": counters.get("oracle.search_hosts", 0),
        "constructions.profile_s": covered("constructions.profile_table", "constructions.profile_csv"),
        "constructions.points": counters.get("constructions.points", 0),
        "cli.import_s": dump["import_s"],
        "cli.main_s": covered("cli.main"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for n, d, c in zip(names, dur, child):
        out[n.partition(".")[0] + ".self_s"] += d - c
    return out


PEAK_PER_PROCESS = ("graphs.cache_entries", "flags.cache_entries")


def pass_layers(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass: sums over its commands.

    Cache sizes are per process, so a pass reports the largest.
    """
    per_cmd = [rollup(d) for d in dumps]
    out = {
        k: (max if k in PEAK_PER_PROCESS else sum)(r[k] for r in per_cmd)
        for k in per_cmd[0]
    }
    lifts = out.pop("flags.lift_identity")
    out["flags.lift_identity_ratio"] = lifts / out["flags.lift_calls"] if out["flags.lift_calls"] else 0.0
    out["exactmath.chains_per_isolation"] = (
        out["exactmath.sturm_chains"] / out["exactmath.isolate_calls"]
        if out["exactmath.isolate_calls"] else 0.0
    )
    out["oracle.scan_triples_per_s"] = (
        out["oracle.scan_triples"] / out["oracle.scan_s"] if out["oracle.scan_s"] else 0.0
    )
    return out


# ---------------------------------------------------------------------------
# the run


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile"
    value = sorted(samples)[n - 11]
    return f"n={n}, p{100 * (n - 10) / n:.0f}={value:.4f}"


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, checker: Checker):
        self.cmds = commands(workload, seed)
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup: list[float] = []
        self.passes: list[Pass] = []
        self.traced: list[Pass] = []

    def check(self, p: Pass, reference: Pass | None = None) -> None:
        for i, (cmd, r) in enumerate(zip(self.cmds, p.results)):
            self.attempted += 1
            good = self.checker.ok(cmd.case, r.rc, r.stdout)
            if good and reference is not None:
                good = r.stdout == reference.results[i].stdout  # tracing must not alter stdout
            if not good:
                self.failed += 1
                last = r.stderr.decode(errors="replace").strip().splitlines()[-1:]
                self.failures.append(f"{cmd.case}: exit {r.rc} {' '.join(last)}")

    def time_setup(self) -> None:
        for _ in range(SETUP_PER_PASS):
            r = run_child([sys.executable, "-c", "import flagcert.cli"])
            if r.rc != 0:
                raise RuntimeError("import flagcert.cli failed")
            self.setup.append(r.seconds)

    def execute(self) -> None:
        """Warm up, then passes until the next one would overrun the budget.

        The budget includes the warm-up.  Set-up samples are taken between
        passes, so they see the same machine load as the passes do.
        """
        start = time.perf_counter()
        self.check(run_pass(self.cmds))  # warm-up: writes the .pyc files
        while True:
            t0 = time.perf_counter()
            if not self.trace:
                self.time_setup()
            p = run_pass(self.cmds)
            self.check(p)
            self.passes.append(p)
            if self.trace:
                t = run_pass(self.cmds, traced=True)
                self.check(t, reference=p)
                self.traced.append(t)
            cost = time.perf_counter() - t0
            if time.perf_counter() - start + cost > self.seconds:
                break

    def command_medians(self) -> dict[str, float]:
        return {
            cmd.metric: statistics.median(p.results[i].seconds for p in self.passes)
            for i, cmd in enumerate(self.cmds)
        }

    def end_to_end(self) -> dict[str, float]:
        per_cmd = self.command_medians()
        return {
            "setup_s": statistics.median(self.setup),
            # a pass, as the sum of its commands' medians: a burst of load
            # on the machine then moves one sample, not a whole pass
            "wall_s": sum(per_cmd.values()),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in self.passes),
        }

    def per_layer(self) -> dict[str, float]:
        rolled = [pass_layers(t.dumps) for t in self.traced]
        out = {k: statistics.median(r[k] for r in rolled) for k in rolled[0]}
        out["trace.overhead_s"] = (
            statistics.median(t.wall for t in self.traced)
            - statistics.median(p.wall for p in self.passes)
        )
        per_cmd = self.command_medians()
        for metric in ALL_COMMAND_METRICS:
            out[f"cmd.{metric}"] = per_cmd.get(metric, 0.0)
        return out

    def report(self) -> list[str]:
        """Human-readable lines: every metric with its unit and sample count."""
        lines = [
            f"workload={self.workload} seed={self.seed} seconds={self.seconds} "
            f"trace={int(self.trace)} passes={len(self.passes)} traced_passes={len(self.traced)}"
        ]
        if not self.trace:
            lines.append(f"  setup_s {statistics.median(self.setup):.4f} s ({tail(self.setup)})")
        walls = [p.wall for p in self.passes]
        lines.append(
            f"  wall_s {sum(self.command_medians().values()):.4f} s "
            f"(sum of command medians; pass walls {tail(walls)})"
        )
        for i, cmd in enumerate(self.cmds):
            times = [p.results[i].seconds for p in self.passes]
            lines.append(f"  {cmd.metric} {statistics.median(times):.4f} s ({tail(times)}) [{cmd.case}]")
        rss = [p.peak_rss_mb for p in self.passes]
        lines.append(f"  peak_rss_mb {statistics.median(rss):.1f} MB (max {max(rss):.1f})")
        lines.append(f"  fail_ratio {self.failed / self.attempted:.4f} ratio ({self.failed}/{self.attempted})")
        lines.extend(f"  FAILED {f}" for f in self.failures)
        return lines

    def result(self) -> dict:
        values = self.per_layer() if self.trace else self.end_to_end()
        names = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u, _ in names},
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_child stops the running command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "flagcert" / "cli.py").is_file():
        print(f"error: no flagcert source under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), Checker.load())
    run.execute()
    for line in run.report():
        print(line)
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
