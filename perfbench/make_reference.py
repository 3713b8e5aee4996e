"""Write the reference optima that run.py checks results against.

Usage: python3 perfbench/make_reference.py SEED [SEED ...]

For each seed, the instance lists of the spinglass and qubo_field workloads
are solved with the solver of this checkout. Per seed, the first instance of
each kind with at most BRUTE_FORCE_MAX_VARS variables -- the smallest kinds in
the lists -- is cross-checked by brute force; a mismatch, or a result that is
not a proven optimum, aborts without writing. Block trees need no entry:
run.py brute-forces every block.
"""

import json
import sys

from checkout import HERE, import_sparsecut

sparsecut = import_sparsecut()

from workloads import (  # noqa: E402
    brute_force_maxcut,
    brute_force_qubo,
    load_reference,
    instances,
    objective,
    solve,
)

BRUTE_FORCE_MAX_VARS = 25


def optimum(inst):
    report = solve(inst.fmt, inst.text(), sparsecut.Config(time_limit_s=600.0))
    recomputed = objective(inst, report.partition)
    if report.status != "optimal" or recomputed != report.best_value:
        sys.exit(f"{inst.name}: no proven optimum ({report.status})")
    return report.best_value


def main(seeds):
    path = HERE / "reference.json"
    ref = load_reference(path)
    for workload in ("spinglass", "qubo_field"):
        for seed in seeds:
            values, kinds = [], set()
            for inst in instances(workload, seed):
                value = optimum(inst)
                kind = inst.name.split("-", 2)[2]
                if kind not in kinds and inst.n <= BRUTE_FORCE_MAX_VARS:
                    kinds.add(kind)
                    brute = (brute_force_qubo if inst.fmt == "bq"
                             else brute_force_maxcut)(inst.n, inst.terms)
                    if brute != value:
                        sys.exit(f"{inst.name}: solver {value} != brute force {brute}")
                values.append(value)
            ref.setdefault(workload, {})[str(seed)] = values
            print(f"{workload} seed {seed}: {len(values)} optima", flush=True)
    path.write_text(format_reference(ref))


def format_reference(ref):
    """JSON with one line per (workload, seed) list."""
    blocks = []
    for workload, seeds in sorted(ref.items()):
        rows = ",\n".join(f'  "{seed}": {json.dumps(values)}' for seed, values
                          in sorted(seeds.items(), key=lambda kv: int(kv[0])))
        blocks.append(f' "{workload}": {{\n{rows}\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
