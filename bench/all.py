"""Run every workload once and print each metric by name, with its unit.
Run from the repository root:

    python3 bench/all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process (so peak RSS and set-up are its
own), one after another.  Exits 1 if any workload reported a wrong
output, 2 if one could not run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    worst = 0
    for w in workloads.PLANS:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            continue
        print(f"  correct {result['correct']}, {result['failed']} of "
              f"{result['attempted']} commands failed")
    return worst


if __name__ == "__main__":
    sys.exit(main())
