"""Benchmark for octo-so8: cold CLI time, warm library throughput and
per-layer traces.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PKG = SRC / "octo_so8"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402

SETUP_STARTS_PER_ROUND = 8
CHILD_TIMEOUT_S = 150
# A child's own peak resident set.  getrusage cannot give it: a child
# inherits the high-water mark of the benchmark process it was forked from.
VMHWM_KB = "int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"
PEAK_MARK = "perfbench-vmhwm-kb="
CLI_STUB = ("import atexit, sys; from octo_so8.cli import main; "
            f"atexit.register(lambda: sys.stderr.write('{PEAK_MARK}%d\\n' % {VMHWM_KB})); "
            "sys.exit(main())")
SETUP_STUB = ("import time; t0 = time.perf_counter(); import octo_so8; "
              "t1 = time.perf_counter(); octo_so8.load_fixtures(); "
              f"print(t1 - t0, time.perf_counter() - t1, {VMHWM_KB})")


def child_env() -> dict:
    # Children may write bytecode into the checkout, as an installed
    # package has it; the first, untimed child writes it.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in ("OCTO_SO8_FIXTURES", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


def run_child(args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", *args], cwd=ROOT,
                          env=child_env(), capture_output=True,
                          encoding="utf-8", errors="replace",
                          timeout=CHILD_TIMEOUT_S)


def setup_start() -> tuple:
    """One fresh interpreter that imports octo_so8 and loads the bundled
    fixtures: its wall time, and the import and load times and peak
    resident set it measured itself."""
    start = time.perf_counter()
    p = run_child([SETUP_STUB])
    wall = time.perf_counter() - start
    if p.returncode != 0:
        raise RuntimeError(f"set-up child failed: {p.stderr.strip()}")
    imp, load, peak = p.stdout.split()
    return wall, float(imp), float(load), int(peak)


def cold_setup(n: int) -> dict:
    """Medians of n set-up starts, one after another."""
    walls, imports, loads, peaks = zip(*(setup_start() for _ in range(n)))
    return {"setup_s": statistics.median(walls),
            "octo_so8.import_s": statistics.median(imports),
            "fixtures.load_fixtures_s": statistics.median(loads),
            "peak_kb": max(peaks)}


def load_program():
    os.environ.pop("OCTO_SO8_FIXTURES", None)
    sys.path.insert(0, str(SRC))
    import octo_so8.cli as cli
    if Path(cli.__file__).resolve().parent != PKG.resolve():
        raise RuntimeError(f"imported octo_so8 from {cli.__file__}, not {PKG}")
    return cli


def warm_call(cli, argv):
    """(exit code, stdout, stderr) of one cli.main call; an exception
    that escapes it is a failed operation with exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def warm_pass(cli, cmds):
    """Every command through cli.main in this process, one at a time."""
    start = time.perf_counter()
    results = [warm_call(cli, argv) for argv in cmds]
    return time.perf_counter() - start, results


def cold_call(argv) -> tuple:
    """(wall time, peak resident set in kB, (exit code, stdout, stderr))
    of one command as a fresh process."""
    start = time.perf_counter()
    p = run_child([CLI_STUB, *argv])
    wall = time.perf_counter() - start
    err, mark, peak = p.stderr.rpartition(PEAK_MARK)
    if not mark:
        raise RuntimeError(f"child gave no peak resident set: {' '.join(argv)}")
    return wall, int(peak), (p.returncode, p.stdout, err)


def warm_up(cli, cmds):
    """Import every module, build the generator set of each reading the
    pass uses and load the fixtures once: the state cli.main keeps
    between calls."""
    readings = sorted({argv[argv.index("--beta-variant") + 1]
                       if "--beta-variant" in argv else "sigma"
                       for argv in cmds})
    for r in readings:
        warm_call(cli, ["dump-beta", "1", "--beta-variant", r])
    cli.load_fixtures()


class Ledger:
    """Counts attempted and failed operations.  A repeated command must
    give the same exit code and the same bytes on stdout as its first
    run, cold or warm."""

    def __init__(self, oracle, workload, cmds):
        self.oracle, self.workload, self.cmds = oracle, workload, cmds
        self.first = {}
        self.attempted = self.failed = self.unexpected = 0
        self.failures = []

    def add(self, results):
        verdicts = self.oracle.check_pass(self.workload, self.cmds, results)
        for argv, (rc, out, err), ok in zip(self.cmds, results, verdicts):
            ok = ok and self.first.setdefault(tuple(argv), (rc, out)) == (rc, out)
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.unexpected += not workloads.known_fault(argv)
                self.failures.append(" ".join(argv))


def interleaved(args, cmds, ledger) -> dict:
    """Whole rounds until the next one would end past --seconds (at least
    one).  A round takes the commands in pass order; each command runs
    once as a fresh process and then REPEATS times through cli.main, and
    every SETUP_STRIDE-th command is preceded by one set-up start.  So
    set-up, cold and warm samples all spread over the whole run, and each
    follows the host's speed over the same stretch of time.  A metric is
    built from per-command medians over the rounds."""
    repeats = workloads.REPEATS[args.workload]
    stride = max(1, len(cmds) // SETUP_STARTS_PER_ROUND)
    cli = load_program()
    warm_up(cli, cmds)
    setups, peak_kb = [], 0
    cold = [[] for _ in cmds]
    warm = [[] for _ in cmds]
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        cold_results, warm_results = [], [[] for _ in range(repeats)]
        for i, argv in enumerate(cmds):
            if i % stride == 0:
                wall, _, _, peak = setup_start()
                setups.append(wall)
                peak_kb = max(peak_kb, peak)
            wall, peak, result = cold_call(argv)
            cold[i].append(wall)
            peak_kb = max(peak_kb, peak)
            cold_results.append(result)
            for j in range(repeats):
                t0 = time.perf_counter()
                result = warm_call(cli, argv)
                warm[i].append(time.perf_counter() - t0)
                warm_results[j].append(result)
        ledger.add(cold_results)
        for results in warm_results:
            ledger.add(results)
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    warm_pass_s = sum(statistics.median(ts) for ts in warm)
    return {"setup_s": (statistics.median(setups), "s"),
            "cold_s": (sum(statistics.median(ts) for ts in cold), "s"),
            "warm_ops_per_s": (len(cmds) / warm_pass_s, "1/s"),
            "peak_rss_mb": (peak_kb / 1024, "MB")}


def measure(args, oracle, cmds) -> tuple:
    ledger = Ledger(oracle, args.workload, cmds)
    run_child(["import octo_so8.cli"])          # byte-compile, fill caches
    if args.trace:
        setup = cold_setup(SETUP_STARTS_PER_ROUND)
        metrics = {k: (setup[k], "s")
                   for k in ("octo_so8.import_s", "fixtures.load_fixtures_s")}
        metrics.update(traced(args, cmds, ledger))
    else:
        metrics = interleaved(args, cmds, ledger)
    return ledger, metrics


def traced(args, cmds, ledger) -> dict:
    """One untraced and one traced warm pass, then one pass under
    cProfile for the call counts."""
    from tracer import Tracer, call_counts, layer_metrics
    cli = load_program()
    tracer = Tracer()
    tracer.install()
    warm_up(cli, cmds)
    tracer.uninstall()
    first_build = tracer.totals()[0].get("matrices.beta_set", 0.0)
    tracer.reset()
    plain_s, results = warm_pass(cli, cmds)
    ledger.add(results)
    tracer.install()
    try:
        traced_s, results = warm_pass(cli, cmds)
    finally:
        tracer.uninstall()
    ledger.add(results)
    out = layer_metrics(tracer, first_build)
    profiled = []
    out.update(call_counts(lambda: profiled.append(warm_pass(cli, cmds)[1]),
                           str(PKG.resolve())))
    ledger.add(profiled[0])
    out["trace.pass_untraced_s"] = (plain_s, "s")
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"spans-{args.workload}-{args.seed}.jsonl")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (PKG / "__init__.py").is_file():
        print(f"error: no octo_so8 package at {PKG}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    oracle = Oracle(PKG / "data")
    cmds = workloads.commands(args.workload, args.seed, oracle)
    ledger, metrics = measure(args, oracle, cmds)
    for line in (oracle.errors[:5] + ledger.failures[:5]):
        print(f"failed: {line}", file=sys.stderr)
    result = {"correct": ledger.unexpected == 0,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
