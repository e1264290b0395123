"""Record the benchmark's correctness fixtures from the current program.

Run from the repository root as ``PYTHONPATH=src python3 perfbench/record_fixtures.py``
only when a change of behaviour is wanted and reviewed: the grid CSV bytes and
the reduced state counts of the scale cells (smoke cells included).
"""

import json

import bimlab
from workloads import (EXPERIMENT_ARGS, FIXTURES, GRID, GRID_SAMPLES, SCALE_GENERIC,
                       SCALE_HANDCRAFTED, SMOKE_SCALE_GENERIC, SMOKE_SCALE_HANDCRAFTED)


def main() -> None:
    rows = bimlab.run_experiment(GRID, seed=0, sample_count=GRID_SAMPLES, **EXPERIMENT_ARGS)
    (FIXTURES / "grid.csv").write_text(bimlab.render_csv(rows), encoding="utf-8")
    scale = {"handcrafted": {}, "generic": {}}
    for k, n in SCALE_HANDCRAFTED + SMOKE_SCALE_HANDCRAFTED:
        reduced = bimlab.handcrafted_bimachine(bimlab.InstanceParams(k, n)).reduce()
        scale["handcrafted"][f"{k},{n}"] = [reduced.left.state_count, reduced.right.state_count]
    for k, n in SCALE_GENERIC + SMOKE_SCALE_GENERIC:
        prepared = bimlab.trim(bimlab.remove_input_epsilons(
            bimlab.instance_transducer(bimlab.InstanceParams(k, n))))
        reduced = bimlab.to_bimachine(prepared).reduce()
        scale["generic"][f"{k},{n}"] = [reduced.left.state_count, reduced.right.state_count]
    (FIXTURES / "scale.json").write_text(json.dumps(scale, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
