"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

From the checkout root.  Checks that every workload, untraced and traced,
ends with a result line that names every metric of ``BENCHMARK.json`` with
its unit; that each correctness check fails when fed a corrupted
expectation; and that the command refuses to run without the program.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def result_line(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no output")
    return json.loads(lines[-1])


def check_emitted(root: Path, contract: dict) -> None:
    for spec in contract["workloads"]:
        for trace in (0, 1):
            cmd = [*contract["command"], "--workload", spec["name"], "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run([sys.executable if cmd[0] == "python3" else cmd[0], *cmd[1:]],
                                  cwd=root, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                fail(f"{spec['name']} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            result = result_line(proc.stdout)
            if set(result) != RESULT_KEYS:
                fail(f"{spec['name']}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                fail(f"{spec['name']} trace={trace}: {result}")
            wanted = contract["per_layer"] if trace else contract["end_to_end"]
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"] or not isinstance(got.get("value"), float):
                    fail(f"{spec['name']} trace={trace}: metric {metric['name']} -> {got}")
            if len(result["metrics"]) != len(wanted):
                fail(f"{spec['name']} trace={trace}: extra metrics")
            print(f"ok  {spec['name']} trace={trace}: {len(wanted)} metrics")


def check_checks() -> None:
    """Each check passes on consistent inputs and fails on a corrupted one."""
    frame = (["loss"], [{"loss": 1.0}])
    cases = [
        ("record_train stored rows", lambda n: checks.record_train(10, n, frame, frame), 10, 9),
        ("record_train cold frame",
         lambda v: checks.record_train(1, 1, frame, (["loss"], [{"loss": v}])), 1.0, 2.0),
        ("hindsight row count", lambda n: checks.hindsight_round("p", n, 8, 8, 8), 8, 9),
        ("hindsight duplicates", lambda d: checks.hindsight_round("p", 8, 8, 8, d), 8, 7),
        ("acked equals stored", lambda n: checks.acked_equals_stored({"t": n}, {"t": 48}), 48, 64),
        ("tail contiguity", lambda s: checks.tail_trail(s, 10, 3, 3), [11, 12, 13], [11, 13, 14]),
        ("tail duplicates", lambda s: checks.tail_trail(s, 10, 3, 3), [11, 12, 13], [11, 12, 12]),
        ("tail stored count", lambda n: checks.tail_trail([11, 12, 13], 10, 3, n), 3, 4),
    ]
    for label, run, good, corrupted in cases:
        if run(good):
            fail(f"check '{label}' fails on consistent input: {run(good)}")
        if not run(corrupted):
            fail(f"check '{label}' accepts a corrupted expectation")
        print(f"ok  check '{label}' fails when corrupted")


def check_refuses_without_program(root: Path, contract: dict) -> None:
    bare = root / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in contract["paths"]:
            shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [*contract["command"], "--workload", contract["workloads"][0]["name"],
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run([sys.executable, *cmd[1:]], cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"ran without the program: rc={proc.returncode} stdout={proc.stdout!r}")
        print("ok  refuses to run without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    contract = json.loads((root / "BENCHMARK.json").read_text())
    check_checks()
    check_refuses_without_program(root, contract)
    check_emitted(root, contract)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
