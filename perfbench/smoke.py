"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it runs ``run.py --tiny`` plain and traced, and checks
that the last line holds exactly the required keys, that every metric
``BENCHMARK.json`` names is printed with its unit, that every per-layer
metric records something, and that every output matched its oracle.  It
then runs once with ``--wrong-reference`` and checks that the shifted
reference turns each norms task into a counted failure, which shows that
the checker catches wrong answers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"smoke test failed: {message}")


def run(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    """Last line and the summary line before it."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    check(out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    recorded: set[str] = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, summary = run(workload, trace)
            where = f"{workload} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
            check(result["correct"] is True, f"{where}: an output disagreed with its oracle")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{where}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
            # The budgeted iterative solve is the only task allowed to fail.
            check(set(summary["statuses"]) <= {"ok", "not_converged"}, f"{where}: {summary['statuses']}")
            if trace:
                recorded |= {name for name, m in result["metrics"].items() if m["value"]}
    # Tiny runs call every traced function, so a metric that stays 0 is misnamed.
    silent = {m["name"] for m in spec["per_layer"]} - recorded
    check(not silent, f"per-layer metrics never recorded: {sorted(silent)}")

    bad, summary = run("spectral", 0, "--wrong-reference")
    statuses = summary["statuses"]
    norms_tasks = summary["detail"]["norms_s"]["n"]
    check(bad["correct"] is False, "a wrong reference left the run marked correct")
    check(statuses.get("wrong") == norms_tasks, f"{statuses} with {norms_tasks} norms tasks")
    check(bad["failed"] == norms_tasks + statuses.get("not_converged", 0), f"failed {bad['failed']}")
    ok_frac = 1.0 - bad["failed"] / bad["attempted"]
    check(bad["metrics"]["ok_frac"]["value"] == ok_frac, "ok_frac does not count the wrong answers")
    print("smoke test passed")


if __name__ == "__main__":
    main()
