#!/usr/bin/env python3
"""Record bench/reference.json: the exit code and the sha256 of stdout (plus
the SVG file, for parliament) of every desk operation at the reference seed.

    python3 bench/record_reference.py

Run it only at a commit whose outputs are known to be right: the benchmark
then requires every later commit to reproduce these bytes.
"""
import json
import shutil
import sys

import run


def main():
    sys.path.insert(0, str(run.SRC))
    run.import_package()
    scratch = run.SCRATCH / "reference"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        docs = run.desk_documents(run.REFERENCE_SEED, scratch)
        recorded = {}
        for op in run.desk_operations(docs, scratch, reference={}):
            recorded[op.key], _ = op.check(op.run())
    finally:
        shutil.rmtree(run.SCRATCH, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(
        {"seed": run.REFERENCE_SEED, "operations": recorded}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
