"""The benchmark's inputs and exact counts depend on the seed alone."""

import functools
import json
import subprocess
import sys

import pytest

from conftest import BENCH
from workloads import WORKLOADS, OpStream, build_world

#: Counts the single-client workloads must reproduce exactly, per mode.
EXACT = {
    0: ("asr_pages",),
    1: (
        "asr.maintenance.rows_examined",
        "asr.maintenance.rows_changed",
        "storage.btree.search.calls",
        "storage.btree.range.calls",
        "storage.btree.insert.calls",
        "storage.btree.delete.calls",
    ),
}
#: Page counts, which a known defect lets drift by a page or two.
PAGES = {
    0: ("pages_per_op",),
    1: ("storage.pool.page_reads", "storage.pool.page_writes"),
}
SINGLE_CLIENT = [w for w in sorted(WORKLOADS) if WORKLOADS[w].clients == 1]


def bench(workload: str, seed: int, trace: int, *extra: str) -> dict:
    """One shortest benchmark run in its own process; its result line."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def stream(workload: str, seed: int, world_index: int = 0, segments: int = 2):
    world = build_world(WORKLOADS[workload], seed)
    try:
        ops = OpStream(WORKLOADS[workload], world.generated, seed, world_index)
        return [op for _ in range(segments) for op in ops.segment()]
    finally:
        world.close()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_the_same_stream(workload):
    first = stream(workload, 3)
    assert first == stream(workload, 3)
    assert len(first) == 2 * WORKLOADS[workload].ops_per_segment


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_another_seed_or_world_changes_the_stream(workload):
    first = stream(workload, 3)
    assert first != stream(workload, 4)
    assert first != stream(workload, 3, world_index=1)


def test_update_share_and_kinds_are_exact():
    ops = stream("maintain-spill", 0)
    updates = [op.name for op in ops if op.is_update]
    assert len(updates) == len(ops) // 2
    assert {name: updates.count(name) for name in set(updates)} == {
        "ins_2": len(updates) // 4, "ins_3": len(updates) // 4,
        "rem_2": len(updates) // 4, "rem_3": len(updates) // 4,
    }
    assert sum(op.is_update for op in stream("query-hot", 0)) == 16


def test_select_texts_fit_the_plan_cache():
    texts = {op.text for op in stream("select-text", 0) if op.kind == "select"}
    assert 1 < len(texts) <= 128


@functools.lru_cache(maxsize=None)
def two_runs(workload: str, trace: int) -> tuple[dict, dict]:
    return bench(workload, 1, trace), bench(workload, 1, trace)


@pytest.mark.parametrize("workload", SINGLE_CLIENT)
@pytest.mark.parametrize("trace", [0, 1])
def test_exact_counts_repeat_across_processes(workload, trace):
    first, second = two_runs(workload, trace)
    for name in EXACT[trace]:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.xfail(strict=False, reason=(
    "known defect: B+ tree pages are identified by id(node), so a node "
    "allocated where a freed one lived inherits its pool residency, and "
    "where that happens depends on the process's allocation history"))
@pytest.mark.parametrize("workload", SINGLE_CLIENT)
@pytest.mark.parametrize("trace", [0, 1])
def test_page_counts_repeat_across_processes(workload, trace):
    first, second = two_runs(workload, trace)
    for name in PAGES[trace]:
        assert first["metrics"][name] == second["metrics"][name], name
