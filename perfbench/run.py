"""Repository benchmark: one command, three workloads, one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The program is imported from ``src/``;
when that is missing the command exits 2 without a result.  The untraced run
(``--trace 0``) prints every end-to-end metric of ``BENCHMARK.json``; the
traced run (``--trace 1``) installs spans around the program's public entry
points and prints every per-layer metric, after a self-time table on stderr.
The last line of standard output is the result object.  A failed correctness
check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import p50  # noqa: E402

#: Every workload sets up this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3

WORKLOADS = ("record_train", "serve_mixed", "fleet_tail")


class Context:
    """What a workload receives: its seed, its time budget, a scratch
    directory inside the checkout, and the span recorder when traced."""

    def __init__(self, root: Path, seed: int, seconds: float, recorder, tiny: bool):
        self.root = root
        self.src = root / "src"
        self.seed = seed
        self.seconds = seconds
        self.recorder = recorder
        self.tiny = tiny
        self.work = root / ".perfbench_work" / f"run-{os.getpid()}"


def load_contract(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def run_workload(name: str, ctx: Context) -> dict:
    """Set up ``SETUP_REPS`` times, measure on the last fixture, tear down."""
    module = importlib.import_module(f"wl_{name}")
    setups: list[float] = []
    fixture = None
    try:
        for rep in range(SETUP_REPS):
            if fixture is not None:
                fixture.close()
                fixture = None
            started = time.perf_counter()
            fixture = module.setup(ctx, ctx.work / f"setup{rep}")
            setups.append(time.perf_counter() - started)
        outcome = module.measure(ctx, fixture)
    finally:
        if fixture is not None:
            fixture.close()
    outcome.setdefault("metrics", {})["setup_s"] = p50(setups)
    if ctx.recorder is not None:
        layers = outcome.setdefault("layers", {})
        # In-process workloads have no server: their whole set-up is preload.
        layers.setdefault("preload_s", p50(setups))
        wall = outcome.get("trace_wall_ms")
        if wall:
            layers["trace.covered_share"] = ctx.recorder.covered_ms() / wall
    outcome["metrics"].update(outcome.pop("after_close", lambda: {})())
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test scale (not for measurements)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/repro (the program under test)", file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print("error: BENCHMARK.json not found in the working directory", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    contract = load_contract(root)

    # A terminated run still stops its servers: SIGTERM unwinds like an exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
    ctx = Context(root, args.seed, args.seconds, recorder, args.tiny)
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run_workload(args.workload, ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            ctx.work.parent.rmdir()
        except OSError:
            pass

    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    produced = outcome["metrics"] if not args.trace else outcome.get("layers", {})
    metrics = {}
    for spec in wanted:
        # A layer the workload does not exercise reads 0 (it stays flat).
        value = produced.get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    missing = [s["name"] for s in contract["end_to_end"] if s["name"] not in outcome["metrics"]]
    errors = list(outcome.get("errors", []))
    if missing:
        errors.append(f"workload produced no value for {missing}")
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    if recorder is not None:
        print(outcome.get("trace_report", ""), file=sys.stderr)
        recorder.dump(root / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.json")
    result = {
        "correct": not errors,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
