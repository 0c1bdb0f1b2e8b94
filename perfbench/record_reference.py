"""Record the reference numbers of every workload at the default seed.

    python3 perfbench/record_reference.py

Runs one pass of each workload and writes ``perfbench/reference.json``.
Rerun it only when a change is meant to alter the numbers, and say so in
the change; ``run.py`` compares every default-seed pass against this file.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

from run import THREAD_VARS

HERE = Path(__file__).resolve().parent


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    reference = {}
    scratch = HERE.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            result = workload.run_pass(workload.setup(workloads.DEFAULT_SEED,
                                                      Path(workdir)))
        failed = [f"{c.name}: {c.detail}" for c in result.calls if not c.ok]
        if failed:
            print(f"{name}: not recorded, failed calls:\n" + "\n".join(failed),
                  file=sys.stderr)
            return 1
        reference[name] = result.numbers
        print(f"{name}: {len(result.numbers)} numbers")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1,
                                                    sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
