"""Seeded worlds, op streams, closed-loop drivers and the correctness gate.

A *world* is one generated chain object base wired the way the serve
daemon wires it (``repro.bench.serve.build_world``): a 256-page shared
buffer pool, a full-extension ASR over the chain path, the drift monitor
over the measured profile, per-ASR circuit breakers, a structural
``Planner`` for bound ``Q_{i,j}`` ops and a ``QueryService`` with the
cost-based planner and the default 128-entry plan cache for text.  No
device latency is simulated: every number is CPU work plus page counts.

A run builds a few fresh worlds from the seed.  Each replays its op
stream in timed *segments* through persistent clients in a closed loop
(a client issues its next op only when the last one returned), and the
correctness gate checks the world once its segments are done, outside
the timed region.  The worlds and streams depend on the seed alone, so
page and call counts over a fixed prefix of segments repeat exactly on
the single-client workloads.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro import (
    ApplicationProfile,
    ASRManager,
    BackwardQuery,
    BreakerBoard,
    ContextPool,
    CostModelPredictor,
    DriftMonitor,
    Extension,
    ForwardQuery,
    MetricsRegistry,
    NULL,
    PathExpression,
    Planner,
    QueryEvaluator,
)
from repro.query.costplanner import CostBasedPlanner
from repro.query.service import QueryService
from repro.workload.generator import ChainGenerator, measure_profile

#: The serve daemon's ``fig14`` profile (``repro.bench.serve.SMALL_PROFILE``),
#: restated so the benchmark's inputs stay fixed if the daemon's change.
SERVE_PROFILE = ApplicationProfile(
    c=(40, 80, 120, 240, 480),
    d=(36, 64, 96, 200),
    fan=(2, 2, 2, 2),
    size=(120,) * 5,
)

POOL_PAGES = 256
PLAN_CACHE_ENTRIES = 128

#: The Fig. 14 query shapes, issued in equal shares.  (Fig. 14 weighs
#: Q0,4 at one half; with its ASR lookups an order of magnitude cheaper
#: than the others, the query median would then sit on the boundary
#: between the two latency modes and jump between them from run to run.)
QUERY_SHAPES = ((0, 4, "bw"), (0, 3, "bw"), (1, 2, "fw"))
#: Set-valued chain levels the update ops touch (``ins_2``/``ins_3``).
UPDATE_LEVELS = (2, 3)


def scaled(profile: ApplicationProfile, factor: int) -> ApplicationProfile:
    """``profile`` with every object and defined-attribute count × ``factor``."""
    return ApplicationProfile(
        c=tuple(c * factor for c in profile.c),
        d=tuple(d * factor for d in profile.d),
        fan=profile.fan,
        size=profile.size,
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: world size, op mix and client count."""

    name: str
    scale: int
    clients: int
    #: Ops per timed segment; sized so a segment takes about half a second.
    ops_per_segment: int
    #: Share of update ops; the rest are Fig. 14 queries or text selects.
    update_fraction: float
    #: Whether updates take turns between set inserts and set removes.
    removes: bool = False
    #: Whether the non-update ops are text selects through the service.
    text: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("query-hot", scale=4, clients=1, ops_per_segment=400,
                 update_fraction=0.02),
        Workload("maintain-spill", scale=16, clients=1, ops_per_segment=40,
                 update_fraction=0.5, removes=True),
        Workload("select-text", scale=4, clients=2, ops_per_segment=120,
                 update_fraction=0.02, text=True),
    )
}


@dataclass(frozen=True)
class Op:
    """One bound op: a ``Q_{i,j}`` query, a set insert/remove, or a select."""

    kind: str  # "query" | "insert" | "remove" | "select"
    name: str
    query: object = None
    level: int | None = None
    #: For updates: the set object whose membership changes …
    collection: object = None
    #: … and the member inserted or removed.
    member: object = None
    text: str | None = None

    @property
    def is_update(self) -> bool:
        return self.kind in ("insert", "remove")


# ----------------------------------------------------------------------
# worlds
# ----------------------------------------------------------------------


@dataclass
class World:
    """One wired world plus how long each set-up step took."""

    generated: object
    registry: MetricsRegistry
    pool: ContextPool
    manager: ASRManager
    drift: DriftMonitor
    breakers: BreakerBoard
    queries: QueryService
    generate_s: float
    build_s: float

    @property
    def asr_pages(self) -> int:
        """Leaf pages of one clustering, summed over the world's ASRs."""
        return sum(asr.total_pages for asr in self.manager.asrs)

    @property
    def asr_rows(self) -> int:
        return sum(asr.tuple_count for asr in self.manager.asrs)

    def close(self) -> None:
        self.manager.close()
        self.pool.close()


def payload_path(generated) -> PathExpression:
    """The chain path extended to the terminal ``Payload`` values."""
    return PathExpression(
        generated.db.schema, "T0", ("A",) * generated.n + ("Payload",)
    )


def build_world(workload: Workload, seed: int) -> World:
    """Generate the object base, build its ASRs and wire the serving stack."""
    registry = MetricsRegistry()
    started = time.perf_counter()
    generated = ChainGenerator(seed).generate(scaled(SERVE_PROFILE, workload.scale))
    generated_at = time.perf_counter()
    pool = ContextPool(POOL_PAGES, metrics=registry)
    manager = ASRManager(generated.db, context=pool.acquire())
    manager.create(generated.path, Extension.FULL)
    if workload.text:
        # Selects run on the Payload terminals; as in the daemon's
        # ``queries`` profile they get an ASR over the extended path.
        manager.create(payload_path(generated), Extension.FULL)
    built_at = time.perf_counter()
    drift = DriftMonitor(CostModelPredictor(measure_profile(generated)), registry)
    breakers = BreakerBoard(threshold=3, cooldown_s=2.0, registry=registry)
    manager.add_state_listener(breakers.on_asr_state)
    queries = QueryService(
        generated.db,
        CostBasedPlanner(manager, breakers=breakers),
        store=generated.store,
        cache_size=PLAN_CACHE_ENTRIES,
        registry=registry,
    )
    return World(
        generated, registry, pool, manager, drift, breakers, queries,
        generate_s=generated_at - started,
        build_s=built_at - generated_at,
    )


# ----------------------------------------------------------------------
# op streams
# ----------------------------------------------------------------------


def _bound_query(generated, shape: tuple[int, int, str], rng: random.Random) -> Op:
    i, j, kind = shape
    if kind == "bw":
        query = BackwardQuery(generated.path, i, j, target=rng.choice(generated.layers[j]))
    else:
        query = ForwardQuery(generated.path, i, j, start=rng.choice(generated.layers[i]))
    return Op("query", f"Q{i},{j}({kind})", query=query)


class _Membership:
    """Shadow set membership, so each update is bound to change the graph."""

    def __init__(self, generated) -> None:
        db = generated.db
        self.layers = generated.layers
        self.sets: dict[int, list] = {}
        self.members: dict[object, set] = {}
        for level in UPDATE_LEVELS:
            owned = [db.attr(owner, "A") for owner in generated.layers[level]]
            self.sets[level] = sorted(c for c in owned if c is not NULL)
            for collection in self.sets[level]:
                self.members[collection] = set(db.members(collection))

    def insert(self, level: int, rng: random.Random) -> Op:
        collection = rng.choice(self.sets[level])
        present = self.members[collection]
        member = rng.choice(self.layers[level + 1])
        while member in present:
            member = rng.choice(self.layers[level + 1])
        present.add(member)
        return Op("insert", f"ins_{level}", level=level, collection=collection, member=member)

    def remove(self, level: int, rng: random.Random) -> Op:
        collection = rng.choice(self.sets[level])
        while not self.members[collection]:
            collection = rng.choice(self.sets[level])
        member = rng.choice(sorted(self.members[collection]))
        self.members[collection].discard(member)
        return Op("remove", f"rem_{level}", level=level, collection=collection, member=member)


#: Select shapes over the Payload path, issued in turns.
SELECT_SHAPES = (
    ("select-eq", "select x from x in extent(T0) where x.{path} = {value}"),
    ("select-range", "select x from x in extent(T0) where x.{path} >= {value}"),
    ("select-proj", "select x, x.{path} from x in extent(T0) where x.{path} >= {value}"),
)
#: Distinct literals per select shape; 3 × 40 texts fit the plan cache.
HOT_VALUES = 40


def _van_der_corput(k: int) -> float:
    """The ``k``-th point of the base-2 van der Corput sequence in (0, 1)."""
    point, scale = 0.0, 0.5
    while k:
        point += scale * (k & 1)
        k >>= 1
        scale /= 2
    return point


def _select_texts(generated) -> list[list[str]]:
    """Per shape, its texts over the hot literals, hottest first.

    The literal of popularity rank ``r`` sits at the ``r``-th van der
    Corput quantile of the world's Payload values, so every level of
    popularity spans the value range evenly and a range select's cost
    does not hinge on which literal a seed happens to make hottest.
    """
    db, n = generated.db, generated.n
    values = sorted(db.attr(oid, "Payload") for oid in generated.layers[n])
    literals = [values[int(_van_der_corput(rank + 1) * len(values))]
                for rank in range(HOT_VALUES)]
    path = ".".join(["A"] * n + ["Payload"])
    return [[template.format(path=path, value=value) for value in literals]
            for _, template in SELECT_SHAPES]


class OpStream:
    """A world's op stream for one seed, drawn a segment at a time.

    Only the seed, the world's index within the run and the freshly
    generated world decide the ops, so every process replays the same
    stream.  The mix is stratified: updates are spread evenly at exactly
    the workload's fraction, update kinds and query shapes take turns,
    and the seeded generator picks the objects, members and literals.
    """

    def __init__(self, workload: Workload, generated, seed: int, world_index: int = 0) -> None:
        self.workload = workload
        self.generated = generated
        self.rng = random.Random(f"{workload.name}/{seed}/{world_index}")
        self.membership = _Membership(generated)
        self.texts = _select_texts(generated) if workload.text else []
        self.zipf = [1.0 / (rank + 1) ** 1.1 for rank in range(HOT_VALUES)]
        self.issued = self.updates = self.reads = 0

    def _next(self) -> Op:
        workload, rng = self.workload, self.rng
        index = self.issued
        self.issued += 1
        fraction = workload.update_fraction
        if int((index + 1) * fraction) > int(index * fraction):
            turn = self.updates
            self.updates += 1
            level = UPDATE_LEVELS[turn % 2]
            if workload.removes and turn % 4 >= 2:
                return self.membership.remove(level, rng)
            return self.membership.insert(level, rng)
        turn = self.reads
        self.reads += 1
        if workload.text:
            shape = turn % len(SELECT_SHAPES)
            rank = rng.choices(range(HOT_VALUES), weights=self.zipf)[0]
            return Op("select", SELECT_SHAPES[shape][0], text=self.texts[shape][rank])
        return _bound_query(self.generated, QUERY_SHAPES[turn % len(QUERY_SHAPES)], rng)

    def segment(self) -> list[Op]:
        """The next ``ops_per_segment`` ops."""
        return [self._next() for _ in range(self.workload.ops_per_segment)]


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


class Client:
    """One closed-loop client: its own pooled context, planner and evaluator."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.context = world.pool.acquire()
        self.planner = Planner(world.manager, drift=world.drift, breakers=world.breakers)
        self.evaluator = QueryEvaluator(
            world.generated.db, world.generated.store, context=self.context
        )

    def execute(self, op: Op) -> bool:
        """Run one op; False when an update left the graph unchanged."""
        world = self.world
        if op.kind == "query":
            self.planner.execute(op.query, self.evaluator)
            return True
        if op.kind == "select":
            world.queries.execute(op.text, context=self.context)
            return True
        manager, db = world.manager, world.generated.db
        with manager.exclusive():
            before = manager.context.stats.snapshot()
            if op.kind == "insert":
                changed = db.set_insert(op.collection, op.member)
            else:
                changed = db.set_remove(op.collection, op.member)
            pages = manager.context.stats.delta_since(before).total
        world.drift.observe_update(op.level, manager.asrs, pages)
        return changed

    def close(self) -> None:
        self.world.pool.release(self.context)


@dataclass
class Segment:
    """What one timed segment measured."""

    wall_s: float
    ops: int
    query_ms: list[float] = field(default_factory=list)
    update_ms: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    pool: dict = field(default_factory=dict)
    #: Host-speed scale for this segment's times (see ``probe.py``).
    scale: float = 1.0
    #: Whether the segment lies in the prefix every run replays.
    exact: bool = False
    recorder: object = None

    @property
    def pages(self) -> int:
        return self.pool["page_reads"] + self.pool["page_writes"]


def replay(clients: list[Client], ops: list[Op], on_op=None) -> Segment:
    """Replay ``ops`` over the clients' closed-loop threads; time every op.

    Client ``k`` of ``n`` replays ``ops[k::n]`` in order.  ``on_op``, when
    given, wraps each op's execution (the traced run's root span).
    """
    world = clients[0].world
    n = len(clients)
    per_client = [([], [], []) for _ in range(n)]  # query, update, errors
    failures = [0] * n
    start_gate = threading.Barrier(n + 1)
    before = world.pool.describe()
    clock = time.perf_counter

    def run(k: int) -> None:
        client = clients[k]
        query_ms, update_ms, errors = per_client[k]
        start_gate.wait()
        for op in ops[k::n]:
            started = clock()
            try:
                ok = on_op(client, op) if on_op else client.execute(op)
            except Exception as error:  # counted, reported, run continues
                ok = False
                errors.append(f"{op.name}: {type(error).__name__}: {error}")
            elapsed_ms = (clock() - started) * 1e3
            (update_ms if op.is_update else query_ms).append(elapsed_ms)
            if not ok:
                failures[k] += 1

    threads = [threading.Thread(target=run, args=(k,)) for k in range(n)]
    for thread in threads:
        thread.start()
    start_gate.wait()
    started = clock()
    for thread in threads:
        thread.join()
    wall = clock() - started
    after = world.pool.describe()
    return Segment(
        wall_s=wall,
        ops=len(ops),
        query_ms=[ms for q, _, _ in per_client for ms in q],
        update_ms=[ms for _, u, _ in per_client for ms in u],
        failed=sum(failures),
        errors=[e for _, _, errs in per_client for e in errs],
        pool={key: after[key] - before[key] for key in
              ("hits", "misses", "evictions", "page_reads", "page_writes")},
    )


# ----------------------------------------------------------------------
# correctness gate (outside the timed region)
# ----------------------------------------------------------------------

GATE_SAMPLE = 12


def _rows(rows) -> list[str]:
    return sorted(repr(row) for row in rows)


def gate(world: World, stream: list[Op], seed: int) -> list[str]:
    """Check the world after its segments; return one message per mismatch.

    * every ASR equals a rebuild from the object base;
    * the shared pool's totals equal the sum of its workers' totals;
    * a seeded sample of ``stream``'s bound queries gives the same cells
      supported and unsupported, and a sample of its selects gives the
      same rows with the world's planner and with an ASR-less one.
    """
    problems: list[str] = []
    try:
        world.manager.check_consistency()
    except AssertionError as error:
        problems.append(f"ASR differs from a rebuild: {error}")
    accounting = world.pool.check_accounting()
    if not accounting["ok"]:
        problems.append(f"pool accounting broken: {accounting}")
    rng = random.Random(f"gate/{seed}")
    generated = world.generated
    queries = [op for op in stream if op.kind == "query"]
    if queries:
        (asr,) = world.manager.find(generated.path, Extension.FULL)
        evaluator = QueryEvaluator(generated.db, generated.store)
        for op in rng.sample(queries, min(GATE_SAMPLE, len(queries))):
            supported = evaluator.evaluate_supported(op.query, asr).cells
            unsupported = evaluator.evaluate_unsupported(op.query).cells
            if supported != unsupported:
                problems.append(f"{op.name}: supported and unsupported answers differ")
    selects = [op for op in stream if op.kind == "select"]
    if selects:
        bare_manager = ASRManager(generated.db)
        try:
            bare = QueryService(generated.db, Planner(bare_manager),
                                store=generated.store, cache_size=0)
            for op in rng.sample(selects, min(GATE_SAMPLE, len(selects))):
                served = world.queries.execute(op.text).report.rows
                reference = bare.execute(op.text).report.rows
                if _rows(served) != _rows(reference):
                    problems.append(f"{op.name}: rows differ from an ASR-less plan")
        finally:
            bare_manager.close()
    return problems
