"""Self-test of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

It checks that
- a short run of the default seed finishes within LIMIT_S seconds, with
  every output correct and equal to its pin;
- a copy of the checkout whose pins.json has one value changed exits
  with code 1 and reports "correct": false;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits with a nonzero code and prints no result;
- a short traced run passes its trace checks, and fails them when the
  wrapper of the workload's main layer is dropped or made slow.
Scratch files go under .bench_work/selftest/.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
SCRATCH = ROOT / ".bench_work" / "selftest"
WORKLOAD = "det-search"
LAYER = "brute.search"  # what WORKLOAD exists to measure
ARGS = ["--workload", WORKLOAD, "--seed", "0", "--seconds", "1"]
LIMIT_S = 60


def run(cwd: Path) -> tuple:
    """Run the default seed in a child process; returns (exit code,
    result line or None, seconds, stderr)."""
    argv = [sys.executable, f"{HERE.name}/run.py", *ARGS, "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=LIMIT_S * 3)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, time.monotonic() - start, proc.stderr


def copy_checkout(dest: Path, with_program: bool) -> None:
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / HERE.name, ignore=skip)
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


def run_traced() -> tuple:
    """A traced run in this process, so that a test can change the
    tracer first; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = bench.main([*ARGS, "--trace", "1"])
    return rc, err.getvalue()


def slow_wrap(original):
    def wrap(self, fn, name, counter):
        if name == LAYER:
            inner = fn

            def fn(*args, **kwargs):
                time.sleep(0.2)
                return inner(*args, **kwargs)

        return original(self, fn, name, counter)

    return wrap


def main() -> int:
    failures = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)

    rc, result, elapsed, err = run(ROOT)
    if rc != 0 or not result or not result["correct"] or result["failed"]:
        failures.append(f"default-seed run failed (exit {rc}): {err[-500:]}")
    if elapsed > LIMIT_S:
        failures.append(f"default-seed run took {elapsed:.1f} s, over {LIMIT_S} s")

    corrupt = SCRATCH / "corrupt"
    copy_checkout(corrupt, with_program=True)
    pins_path = corrupt / HERE.name / "pins.json"
    pins = json.loads(pins_path.read_text())
    key = sorted(pins[WORKLOAD])[0]
    pins[WORKLOAD][key] = "0" if pins[WORKLOAD][key] != "0" else "1"
    pins_path.write_text(json.dumps(pins))
    rc, result, _, _ = run(corrupt)
    if rc != 1 or not result or result["correct"] or not result["failed"]:
        failures.append(f"a corrupted pin for {key} went unnoticed (exit {rc})")

    bare = SCRATCH / "bare"
    copy_checkout(bare, with_program=False)
    rc, result, _, _ = run(bare)
    if rc == 0 or result is not None:
        failures.append(f"without the program the benchmark exited {rc} with {result}")

    rc, err = run_traced()
    if rc != 0:
        failures.append(f"traced run failed (exit {rc}): {err[-500:]}")

    saved = spans.WRAPS[:]
    spans.WRAPS[:] = [w for w in saved if w[2] != LAYER]
    try:
        rc, err = run_traced()
    finally:
        spans.WRAPS[:] = saved
    if rc != 1 or "cli.main's own" not in err or f"no {LAYER} span" not in err:
        failures.append(f"a dropped {LAYER} wrapper went unnoticed (exit {rc}): {err[-500:]}")

    original = spans.Tracer._wrap
    spans.Tracer._wrap = slow_wrap(original)
    try:
        rc, err = run_traced()
    finally:
        spans.Tracer._wrap = original
    if rc != 1 or "untraced wall time" not in err:
        failures.append(f"a slow {LAYER} wrapper went unnoticed (exit {rc}): {err[-500:]}")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
