#!/usr/bin/env python3
"""Rewrite digests.json: every workload's stdout digests at the default seed.

    python3 perfbench/make_digests.py

Run it only when a workload's inputs or commands change.  Nothing is
written if any output fails its checks.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from checks import digest
from spans import Tracer


def main() -> int:
    digests = {}
    run.OUT.mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run.OUT))
        try:
            bench = run.Run(workload, run.DEFAULT_SEED, work)
            bench.stored_digests = None
            bench.setup(1)
            bench.reference(Tracer())
            bench.cli_batch()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if bench.failures:
            print("\n".join(bench.failures), file=sys.stderr)
            return 1
        digests[name] = {label: digest(cmd, stdout)
                         for label, (cmd, stdout) in bench.outputs.items()}
    run.DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {run.DIGESTS.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
