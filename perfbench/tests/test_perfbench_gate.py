"""The correctness gate catches a broken world, and a known defect it finds."""

import pytest

from repro import ASRManager, Planner
from repro.query.service import QueryService
from workloads import WORKLOADS, OpStream, build_world, gate, payload_path


@pytest.fixture
def world():
    world = build_world(WORKLOADS["select-text"], 0)
    yield world
    world.close()


def test_gate_passes_on_an_untouched_world(world):
    stream = OpStream(WORKLOADS["select-text"], world.generated, 0).segment()
    assert gate(world, stream, 0) == []


def test_gate_reports_an_asr_that_drifted_from_the_object_base(world):
    stream = OpStream(WORKLOADS["select-text"], world.generated, 0).segment()
    asr = world.manager.asrs[0]
    asr.extension_relation.discard(next(iter(asr.extension_relation.rows)))
    assert any("rebuild" in problem for problem in gate(world, stream, 0))


@pytest.mark.xfail(strict=True, reason=(
    "known defect: an ASR-supported '<' select over a full extension also "
    "returns objects whose only paths below the bound end in NULL"))
def test_less_than_select_matches_an_asr_less_plan(world):
    generated = world.generated
    hops = ".".join(payload_path(generated).attributes)
    value = sorted(generated.db.attr(oid, "Payload") for oid in generated.layers[-1])[100]
    text = f"select x, x.{hops} from x in extent(T0) where x.{hops} < {value}"
    bare_manager = ASRManager(generated.db)
    try:
        bare = QueryService(generated.db, Planner(bare_manager), store=generated.store)
        served = world.queries.execute(text).report.rows
        assert sorted(map(repr, served)) == sorted(map(repr, bare.execute(text).report.rows))
    finally:
        bare_manager.close()
