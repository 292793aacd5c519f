"""An injected 2x slowdown of one layer must trip the benchmark's own bounds."""

import json
import statistics

from conftest import BENCH
from test_perfbench_determinism import bench

SEEDS = (1, 2, 3)


def bounds() -> dict[str, float]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def test_doubled_maintenance_delta_is_flagged_on_maintain_spill():
    base, slow = [], []
    for seed in SEEDS:  # alternate, so drift in the host's speed hits both sides
        base.append(bench("maintain-spill", seed, 0)["metrics"])
        slow.append(bench("maintain-spill", seed, 0, "--slow", "asr.maintenance.delta=2")["metrics"])
    bound = bounds()

    def median(runs, name):
        return statistics.median(run[name]["value"] for run in runs)

    for name in ("update_p50_ms", "update_p95_ms"):
        assert median(slow, name) > median(base, name) * (1 + bound[name]), name
    assert median(slow, "ops_per_s") < median(base, "ops_per_s") * (1 - bound["ops_per_s"])
