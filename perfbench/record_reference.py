"""Record the output digests that the benchmark's gate compares against.

    python3 perfbench/record_reference.py

Run from the repository root.  Writes ``perfbench/reference.json``: one
digest per input of every workload's fixed input list.
These outputs must stay byte-identical across performance work, so a new
reference is recorded only for a deliberate, reviewed change of output.
Every output passes the workload's own checks before it is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    reference: dict[str, dict[str, str]] = {}
    for name in ("corpus", "realize", "verify"):
        wl = workloads.make(name)
        wl.reference = {}
        m = workloads.import_comring()
        wl.setup(m)
        wl.prepare_checks(m)
        digests = {}
        for inst in wl.instances:
            out = wl.op(m, wl.fresh_input(m, inst))
            reason = wl.check(m, inst, out)
            if reason is not None:
                print(f"error: {name} {inst.key}: {reason}", file=sys.stderr)
                return 1
            digests[inst.key] = workloads.digest(wl.canonical(m, inst, out))
        reference[name] = digests
        print(f"{name}: {len(digests)} digests")
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
