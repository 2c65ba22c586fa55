"""Freeze reference.json from the program as it is now.

    python3 perfbench/freeze.py

Runs every candidate input of every pool once, applies the independent
checks, and stores the digest of what is left of each output. The reference
must come from the commit whose outputs are to be preserved; re-freezing on
a later commit would hide any change in its outputs.
"""

import json
import sys

import checks as ck
from run import load_program
from workloads import WORKLOADS


def main():
    M = load_program()
    pools = {}
    for workload in WORKLOADS.values():
        groups = {spec: M.groups.build_group(spec) for spec in workload.specs}
        for pool, _ in workload.build(M, groups):
            digests, frozen = [], False
            for i, inp in enumerate(pool.inputs):
                try:
                    payload = pool.check(inp, pool.call(inp))
                except ck.CheckFailed as e:
                    if pool.known_defect is None:
                        sys.exit(f"freeze: {pool.name}[{i}] fails its check: {e}")
                    payload = None
                frozen |= payload is not None
                digests.append(ck.digest(payload))
            if frozen:
                pools[pool.name] = "".join(digests)
            print(f"{workload.name:14s} {pool.name:40s} {len(pool.inputs):6d}", file=sys.stderr)
    with open(ck.REFERENCE, "w") as fh:
        json.dump({"digest_chars": ck.DIGEST_CHARS, "pools": pools}, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
