"""Freeze the seed-0 output references that run.py checks against.

Usage, from the root of a checkout:

    python3 perfbench/freeze.py [WORKLOAD ...]

Runs each named workload (default: all) once at seed 0 and stores, per CLI
invocation, the sha256 and the fingerprint of every CSV it writes in
reference.json. Rerun only when a change to hsde is meant to change its
output, and say so where the change is described.
"""

import json
import os
import shutil
import sys
import tempfile

import fingerprint
import run


def freeze(root: str, name: str) -> dict:
    wl = run.WORKLOADS[name]
    work = tempfile.mkdtemp(dir=root, prefix=".perfbench-freeze-")
    try:
        res = run.run_child(root, work, wl.commands(0))
        if any(res["codes"]):
            raise SystemExit(f"{name}: exit codes {res['codes']}\n{res['stderr']}")
        invocations = []
        for argv, out_dir in zip(wl.commands(0), res["dirs"]):
            csvs = {n: {"sha256": h,
                        "fingerprint": fingerprint.fingerprint(os.path.join(out_dir, n))}
                    for n, h in fingerprint.csv_digests(out_dir).items()}
            invocations.append({"argv": argv, "csv": csvs})
        return {"seed": 0, "invocations": invocations}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    names = sys.argv[1:] or sorted(run.WORKLOADS)
    refs = {}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE) as fh:
            refs = json.load(fh)
    for name in names:
        refs[name] = freeze(os.getcwd(), name)
    with open(run.REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
