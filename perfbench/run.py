"""Benchmark of the incomefit CLI on two workloads.

    python3 perfbench/run.py --workload bootstrap-2e5 --seed 1 --seconds 60 --trace 0

Run from the repository root. The inputs are generated from ``--seed``
(see gen.py). The CLI runs as a fresh process, one command at a time,
in rounds until ``--seconds`` have passed; a round is the command plus
the read-back of its outputs, and the outputs are checked each round.
Before each round a fresh interpreter imports the CLI, for ``setup_s``.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, medians over the rounds; with ``--trace 1``
rounds alternate between the plain CLI and the in-process traced run
of traced.py, and the object holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One BLAS thread, here and in every child. numpy's default of a thread per
# core makes a command use both of a 2-core machine's cores, so its wall
# time doubles whenever anything else runs; the second thread only spins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (numpy must see the variables above)
import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

PROGRAM_SEED = "1"          # the program's own seed; the inputs vary with --seed
COMMAND_TIMEOUT_S = 90.0          # a hung command still ends the run within three minutes
BOOTSTRAP_REPLICAS = 20
# criterion 8's fit settings
SMALL_FIT = ["--k", "2000", "--n-candidates", "24", "--max-iters", "80",
             "--refine-every", "20", "--refine-max-steps", "40"]


@dataclass
class Workload:
    argv: list[str]         # CLI arguments, output directory excluded
    fits: int               # model fits per command
    check: checks.BootstrapCheck | checks.SeriesCheck


def build_workload(name: str, inputs: gen.Inputs) -> Workload:
    p = {k: str(v.relative_to(ROOT)) for k, v in inputs.paths.items()}
    if name == "bootstrap-2e5":
        return Workload(["bootstrap", p["data"], "--replicas", str(BOOTSTRAP_REPLICAS),
                         "--seed", PROGRAM_SEED, *SMALL_FIT], BOOTSTRAP_REPLICAS,
                        checks.BootstrapCheck(BOOTSTRAP_REPLICAS))
    years = [f"--year={y}={p[str(y)]}" for y in sorted(inputs.women_by_year)]
    return Workload(["series", *years, "--filter", "sex=woman",
                     "--deflators", p["deflators"],
                     "--reference-year", str(gen.SERIES_REFERENCE_YEAR),
                     "--seed", PROGRAM_SEED, *SMALL_FIT], len(years),
                    checks.SeriesCheck(inputs))


def run_process(cmd: list[str], env: dict, stderr_path: Path) -> tuple[float, float, int]:
    """Wall seconds, peak resident MB and exit code of one child process."""
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def scipy_import_s(stderr_text: str) -> float:
    """Cumulative import time of scipy modules imported by non-scipy ones.

    ``-X importtime`` lists a module after the ones it imports, indented
    one step deeper than its parent.
    """
    entries = [(len(m.group(3)), m.group(4), int(m.group(2)))
               for m in map(_IMPORT_LINE.match, stderr_text.splitlines()) if m]
    total_us = 0
    parent_at_depth: dict[int, str] = {}
    for depth, name, cumulative in reversed(entries):
        parent_at_depth[depth] = name
        parent = parent_at_depth.get(depth - 2, "") if depth > 1 else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total_us += cumulative
    return total_us / 1e6


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def main() -> int:
    parser = argparse.ArgumentParser(description="incomefit CLI benchmark")
    parser.add_argument("--workload", required=True,
                        choices=tuple(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "incomefit" / "cli.py").is_file():
        print(f"error: no incomefit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    work = WORK / args.workload
    inputs = gen.generate(args.workload, args.seed, work / "inputs")
    workload = build_workload(args.workload, inputs)
    out = work / "out"
    cli_args = workload.argv + ["--out-dir", str(out.relative_to(ROOT))]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONSTARTUP", None)

    def import_cli() -> float | None:
        wall, _, code = run_process([sys.executable, "-c", "import incomefit.cli"],
                                    env, work / "setup.err")
        if code != 0:
            print((work / "setup.err").read_text(), file=sys.stderr)
            return None
        return wall

    # untimed warm-up: compiles the bytecode in a fresh checkout, fills the file cache
    if import_cli() is None:
        return 1
    setup = []
    rounds = failed = 0
    correct = True
    samples: dict[str, list[float]] = {}
    plain_walls, traced_walls = [], []
    start = perf_counter()
    while True:
        if not args.trace:
            # set-up is timed before every round, so that its median spans the run
            wall = import_cli()
            if wall is None:
                return 1
            setup.append(wall)
        traced = bool(args.trace) and len(traced_walls) < len(plain_walls)
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "traced.py"),
                   "--metrics", str(work / "layers.json"), "--spans", str(work / "spans.json"),
                   "--", *cli_args]
        else:
            cmd = [sys.executable, "-m", "incomefit.cli", *cli_args]
        wall, rss_mb, code = run_process(cmd, env, work / "cli.err")
        rounds += 1                         # two operations: the command, then the read-back
        if code != 0:
            failed += 2
            print(f"command failed ({code}): {' '.join(cmd)}\n"
                  + (work / "cli.err").read_text()[-2000:], file=sys.stderr)
            break
        try:
            problems = workload.check.problems(out)
        except (KeyError, ValueError, IndexError, OSError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            correct = False
            print("incorrect output:\n  " + "\n  ".join(problems), file=sys.stderr)
        if checks.readback_problems(out, workload.check.outputs):
            failed += 1
        if traced:
            traced_walls.append(wall)
            layers = json.loads((work / "layers.json").read_text())
            layers["import.scipy_s"] = scipy_import_s((work / "cli.err").read_text())
            layers["pipeline.write_bytes"] = tree_bytes(out)
            layers["quality.oob_rmsle"] = getattr(workload.check, "oob_rmsle", 0.0)
            for key, value in layers.items():
                samples.setdefault(key, []).append(value)
        else:
            plain_walls.append(wall)
            samples.setdefault("wall_s", []).append(wall)
            samples.setdefault("peak_rss_mb", []).append(rss_mb)
            samples.setdefault("fits_per_s", []).append(workload.fits / wall)
        # stop before a round that would end past the deadline
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds and (traced_walls or not args.trace):
            break

    if args.trace:
        if traced_walls:
            samples["trace.overhead_s"] = [statistics.median(traced_walls)
                                           - statistics.median(plain_walls)]
    else:
        samples["setup_s"] = setup
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items() if name in samples}
    result = {"correct": correct and len(metrics) == len(units),
              "attempted": 2 * rounds, "failed": failed, "metrics": metrics}
    print(f"{args.workload} seed={args.seed}: {rounds} rounds, "
          f"{failed} of {2 * rounds} operations failed; command walls "
          + " ".join(f"{w:.3f}" for w in plain_walls + traced_walls), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
