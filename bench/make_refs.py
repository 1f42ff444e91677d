#!/usr/bin/env python3
"""Record the reference answers that bench/run.py checks jobs against.

Run from the repository root, once per deliberate change of the answers:

    python3 bench/make_refs.py

Runs every workload's job once at full size, untraced, and writes the
energies, thinned dipole series and spectral peak locations of its
successful operations to ``bench/references.json``, one entry per part,
and the exact-oracle solutions that coupling-scan is checked against.
Operations that fail are listed on standard error and get no reference.
"""

import json
import sys

import run

workloads = run._load_package()


def main() -> int:
    refs = {"recorded_with": run.environment(seed=0)}
    oracle = {}
    for wl in workloads.WORKLOADS.values():
        parts, total, _ = workloads.run_once(wl, tiny=False)
        for label, why in total.failures.items():
            print(f"{label}: {why}", file=sys.stderr)
        for part, _, job in parts:
            refs[part.name] = workloads.summarize(job)
            print(f"{part.name}: {len(refs[part.name])} references", file=sys.stderr)
        problems = workloads.check(parts, None, oracle)
        if problems:
            raise SystemExit(f"answers fail their checks, nothing recorded: {problems}")
    refs["oracle"] = {key: {"energy": ref.energy, "occupations": ref.occupations.tolist()}
                      for key, ref in oracle.items()}
    with open(run.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
