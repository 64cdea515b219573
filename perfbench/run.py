"""coverwin benchmark: end-to-end ``analyze`` and ``listen``, and a traced layer run.

    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

runs every workload and prints each metric by name with its unit.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when any output
differs from the in-process reference, 2 when the source tree is missing.
Run it from the repository root; it writes only under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "coverwin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def stamp(seed: int) -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }


def run_one(name: str, args: argparse.Namespace) -> dict:
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    run_stamp = stamp(args.seed)
    try:
        inputs = harness.make_inputs(workload, args.seed, workdir)
        if args.trace:
            tally, report = harness.traced(inputs, workdir, args.seconds)
        else:
            tally, report = harness.untraced(inputs, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    run_stamp["loadavg_1m_after"] = os.getloadavg()[0]
    print(json.dumps({"workload": name, "trace": args.trace, "stamp": run_stamp}))
    print(json.dumps({"workload": name, "extra": report["extra"]}))
    for problem in tally.problems:
        print(f"GATE FAILED {name}: {problem}")
    for metric, (value, unit) in report["metrics"].items():
        print(f"{name} {metric} = {value:.6g} {unit}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in report["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "coverwin" / "cli.py").is_file():
        print(f"perfbench: no coverwin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    results = {name: run_one(name, args) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
