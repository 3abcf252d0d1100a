"""Sharded, process-parallel GSD for paper-scale fleets.

The paper runs Algorithm 2 over 200 decision groups standing in for 216 K
servers; pushing the reproduction toward that scale (10k+ heterogeneous
groups) outgrows one Python process.  :class:`ShardedGSDSolver` partitions
the fleet's server groups into contiguous shards, each *owned* by a
persistent worker process from a warm :class:`~repro.ipc.pool
.ShardWorkerPool`, and runs the Gibbs chain as a coordinator that scatters
speculative blocks of candidate configurations to the owners.

**Where the shard boundary sits -- and why.**  The obvious decomposition
(split each ν/μ bisection *round* across shards and reduce partial sums)
cannot be bit-identical to the single-process solver without reimplementing
numpy's pairwise-summation blocking across process boundaries, and at
realistic fleet sizes the per-round IPC latency exceeds the centralized
numpy cost of the round itself.  The boundary here is therefore placed at
**candidate granularity**: a candidate configuration (the chain state with
one group's speed flipped) is evaluated *entirely inside* the owner shard's
process by the PR 8 batched water-filling engine
(:meth:`~repro.solvers.fastpath.EvaluationCache.objective_of_batch`), whose
on-count-partitioned ``(K, G)`` pipeline already preserves numpy's
pairwise-summation blocking per candidate.  No floating-point reduction
ever crosses a shard boundary, so a sharded solve is bit-identical to the
single-process :class:`~repro.solvers.gsd.GSDSolver` -- for *any* shard
count -- by construction.  Parallelism comes from the chain's speculative
blocks (the PR 8 ``batched=True`` discipline): one block's candidates fan
out across the owner shards and are evaluated concurrently.

**Determinism contract.**

- ``draw_mode="central"`` (default): every chain draw (group pick,
  proposal, acceptance uniform) comes from the coordinator RNG in exactly
  the consumption order of :class:`~repro.solvers.gsd.GSDSolver`, including
  the speculative rewind-and-replay resync.  The solved action, its inner
  ν/μ/regime, the objective, and the chain-determined counters equal the
  single-process solver's bit for bit.
- ``draw_mode="local"``: each group's *proposal* draws come from a
  dedicated worker-held substream ``default_rng([draw_seed, g])`` -- the
  paper's autonomous-server reading -- while group picks and acceptance
  uniforms stay with the coordinator (two draws per iteration, always).
  Streams are keyed by group, not by shard, so results are invariant to
  the shard count; checkpoints capture every worker stream's position
  (mirrored to the coordinator on each reply that consumed randomness), so
  SIGKILL-anywhere resume stays bit-identical.

**Fault semantics.**  All protocol traffic -- configure, evaluate /
collect, set-level, resync, commit -- crosses an ordinary
:class:`~repro.solvers.messaging.MessageBus` whose registered "agents" are
:class:`ShardAgent` proxies forwarding frames over the IPC channel.  A
fault injector substitutes :class:`repro.faults.bus.FaultyMessageBus` via
``bus_factory`` exactly as it does for
:class:`~repro.solvers.messaging.DistributedGSD`, and the semantics map
one-to-one: *loss* means the frame was never forwarded, *delay* means the
worker did the work but the reply missed the window, *duplicate* means the
frame was forwarded twice (frame handlers are overwrite-idempotent;
duplicated evaluates are deduplicated by sequence number at collect time).
:func:`~repro.solvers.messaging.exchange` retry/ack applies per message; a
pricing/evaluation round still silent after the retry budget is treated as
a failed exploration (the chain moves on), while a set-level or commit
that cannot land escapes as :class:`~repro.solvers.messaging
.BusTimeoutError` to the simulation layer's degradation policy.  Bulk
state transfer (the pickled problem structure, keyed by fingerprint in the
warm pool) is host-level infrastructure, not protocol traffic, and is not
subject to bus faults.

**Worker-death recovery.**  A worker that dies (e.g. SIGKILL) surfaces as
a closed channel; the proxy reports a lost reply (``None``), and on the
next delivery attempt the session respawns the worker and replays its
state -- problem structure, slot deltas, the authoritative level mirror,
and (local mode) the owned RNG stream positions -- before re-forwarding
the in-flight request.  Because every decision the chain made is
coordinator-side and every worker-side value is recomputed from replayed
state, recovery is invisible in the results: a run with a killed worker is
bit-identical to one without.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import time
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from ..cluster.fleet import FleetAction
from ..ipc.pool import ShardWorkerPool, worker_loop
from ..ipc.transport import Channel, ChannelClosedError
from .base import SlotSolution, SlotSolver
from .deadline import DeadlineExceededError, SolveDeadline
from .fastpath import EvaluationCache, FastPathStats
from .gsd import _BLOCK_MAX, _BLOCK_MIN, GSDTrace, _acceptance_probability
from .load_distribution import distribute_load
from .messaging import BusTimeoutError, Message, MessageBus
from .problem import InfeasibleError, SlotProblem

__all__ = ["ShardPlan", "ShardAgent", "ShardedGSDSolver", "problem_fingerprint"]

#: Slot-varying ``SlotProblem`` fields shipped as per-slot deltas; the
#: remaining fields (fleet, substrate models) form the structure the warm
#: pool keys by fingerprint.
_SLOT_FIELDS = (
    "arrival_rate",
    "onsite",
    "price",
    "q",
    "V",
    "beta",
    "gamma",
    "delay_unit_cost",
    "peak_power_cap",
    "max_delay_cost",
    "network_delay",
    "pue_override",
    "slot_hours",
)

#: Neutral values the structure fingerprint normalizes the slot fields to.
_NEUTRAL_SLOT = dict(
    arrival_rate=0.0,
    onsite=0.0,
    price=0.0,
    q=0.0,
    V=1.0,
    beta=0.0,
    gamma=0.5,
    delay_unit_cost=0.0,
    peak_power_cap=None,
    max_delay_cost=None,
    network_delay=0.0,
    pue_override=None,
    slot_hours=1.0,
)


def problem_fingerprint(problem: SlotProblem) -> tuple[str, bytes]:
    """``(fingerprint, payload)`` for the problem's slot-invariant structure.

    The payload is the pickled problem with every per-slot scalar
    normalized away; the fingerprint keys the worker pool's warm cache, so
    consecutive slots over the same fleet ship only small delta dicts.
    """
    structure = replace(problem, prev_on_counts=None, **_NEUTRAL_SLOT)
    payload = pickle.dumps(structure, protocol=min(5, pickle.HIGHEST_PROTOCOL))
    return hashlib.sha256(payload).hexdigest()[:16], payload


def _slot_overrides(problem: SlotProblem) -> dict[str, Any]:
    """The per-slot delta dict a worker applies over the cached structure."""
    overrides: dict[str, Any] = {f: getattr(problem, f) for f in _SLOT_FIELDS}
    overrides["prev_on_counts"] = (
        None
        if problem.prev_on_counts is None
        else np.asarray(problem.prev_on_counts, dtype=np.float64)
    )
    return overrides


# ======================================================================
# Shard layout
# ======================================================================
@dataclass(frozen=True)
class ShardPlan:
    """Contiguous partition of ``num_groups`` groups into ``num_shards``.

    The first ``num_groups % num_shards`` shards own one extra group (the
    ``np.array_split`` convention), so any shard count -- divisor or not --
    yields a total, non-overlapping ownership map.
    """

    num_groups: int
    num_shards: int

    def __post_init__(self) -> None:
        if self.num_groups < 1:
            raise ValueError("need at least one group")
        if not 1 <= self.num_shards <= self.num_groups:
            raise ValueError("need 1 <= num_shards <= num_groups")

    @property
    def offsets(self) -> np.ndarray:
        """``offsets[i]:offsets[i+1]`` is shard ``i``'s group range."""
        base, extra = divmod(self.num_groups, self.num_shards)
        sizes = np.full(self.num_shards, base, dtype=np.int64)
        sizes[:extra] += 1
        return np.concatenate([[0], np.cumsum(sizes)])

    def owner(self, group: int) -> int:
        """The shard owning ``group``."""
        if not 0 <= group < self.num_groups:
            raise IndexError(f"group {group} out of range")
        return int(np.searchsorted(self.offsets, group, side="right") - 1)

    def groups(self, shard: int) -> range:
        """The contiguous group range shard ``shard`` owns."""
        off = self.offsets
        return range(int(off[shard]), int(off[shard + 1]))


# ======================================================================
# Worker program (runs in the forked child)
# ======================================================================
def _shard_worker_main(channel: Channel, index: int) -> None:
    """Entry point of one shard worker: a dispatch loop over solver ops."""
    from ..state.serialize import decode_rng, encode_rng

    problems: dict[str, SlotProblem] = {}
    state: dict[str, Any] = {
        "problem": None,
        "cache": None,
        "levels": None,
        "owned": range(0),
        "group_rngs": {},
        "explore": None,  # (rows, {g: snapshot}) of the last explore block
    }

    def _rng_states(groups) -> dict[int, dict]:
        rngs = state["group_rngs"]
        return {int(g): encode_rng(rngs[g]) for g in groups if g in rngs}

    def on_load_problem(frame: dict) -> dict:
        problems[frame["key"]] = pickle.loads(frame["payload"])
        while len(problems) > 4:  # tiny LRU: slots rarely juggle >2 fleets
            problems.pop(next(iter(problems)))
        return {}

    def on_begin(frame: dict) -> dict:
        base = problems.get(frame["key"])
        if base is None:
            return {"error": "unknown problem fingerprint", "missing_problem": True}
        problem = replace(base, **frame["overrides"])
        state["problem"] = problem
        state["cache"] = EvaluationCache(problem, warm_start=False)
        state["levels"] = np.asarray(frame["levels"], dtype=np.int64).copy()
        lo, hi = frame["owned"]
        state["owned"] = range(lo, hi)
        state["group_rngs"] = {
            int(g): decode_rng(s) for g, s in frame.get("group_rngs", {}).items()
        }
        state["explore"] = None
        return {}

    def on_sync_levels(frame: dict) -> dict:
        state["levels"] = np.asarray(frame["levels"], dtype=np.int64).copy()
        return {}

    def on_set_level(frame: dict) -> dict:
        state["levels"][int(frame["group"])] = int(frame["level"])
        return {}

    def on_explore(frame: dict) -> dict:
        """Draw one proposal per row from the owned per-group substreams."""
        rows = frame["rows"]  # [(block_index, group), ...] in block order
        rngs = state["group_rngs"]
        fleet = state["problem"].fleet
        snapshot = {g: rngs[g].bit_generator.state for _, g in rows}
        proposals = [
            int(rngs[g].integers(-1, fleet.num_levels[g])) for _, g in rows
        ]
        state["explore"] = (rows, snapshot)
        return {"proposals": proposals, "states": _rng_states({g for _, g in rows})}

    def on_resync(frame: dict) -> dict:
        """Un-draw speculative proposals past the consumed block prefix."""
        consumed = int(frame["consumed"])
        explore = state["explore"]
        if explore is None:
            return {"states": {}}
        rows, snapshot = explore
        rngs = state["group_rngs"]
        fleet = state["problem"].fleet
        for g, snap in snapshot.items():
            rngs[g].bit_generator.state = snap
        for bi, g in rows:
            if bi < consumed:
                rngs[g].integers(-1, fleet.num_levels[g])
        state["explore"] = None
        return {"states": _rng_states({g for _, g in rows})}

    def on_evaluate(frame: dict) -> dict:
        """Score this shard's slice of a speculative candidate block."""
        rows = frame["rows"]  # [(block_index, group | None, proposal), ...]
        levels = state["levels"]
        batch = np.repeat(levels[None, :], len(rows), axis=0)
        for r, (_, g, proposal) in enumerate(rows):
            if g is not None:
                batch[r, g] = proposal
        objectives = state["cache"].objective_of_batch(batch)
        return {"objectives": [float(v) for v in objectives]}

    def on_commit(frame: dict) -> dict:
        """Adopt the final configuration; optionally solve it exactly."""
        levels = np.asarray(frame["levels"], dtype=np.int64).copy()
        state["levels"] = levels
        cache: EvaluationCache = state["cache"]
        reply: dict[str, Any] = {
            # Raw dataclass fields (not ``as_dict``: its derived keys are
            # read-only properties) so the coordinator can sum shard stats.
            "stats": asdict(cache.stats),
            "states": _rng_states(state["owned"]),
        }
        if frame.get("want_solution"):
            problem: SlotProblem = state["problem"]
            dist = distribute_load(problem, levels)
            action = FleetAction(levels=levels, per_server_load=dist.per_server_load)
            reply.update(
                per_server_load=dist.per_server_load,
                evaluation=problem.evaluate(action),
                nu=float(dist.nu),
                regime=dist.regime,
                electricity_weight=float(dist.electricity_weight),
                inner_iters=int(dist.inner_iters),
            )
        return reply

    worker_loop(
        channel,
        {
            "load_problem": on_load_problem,
            "begin": on_begin,
            "sync_levels": on_sync_levels,
            "set_level": on_set_level,
            "explore": on_explore,
            "resync": on_resync,
            "evaluate": on_evaluate,
            "commit": on_commit,
        },
    )


# ======================================================================
# Coordinator side: session, proxy agents
# ======================================================================
class _ShardSession:
    """Authoritative per-solve state the coordinator can replay into a
    respawned worker: the problem (structure + slot deltas), the current
    level vector, and the local-mode RNG stream mirror."""

    def __init__(
        self,
        pool: ShardWorkerPool,
        plan: ShardPlan,
        fingerprint: str,
        payload: bytes,
        overrides: dict[str, Any],
        io_timeout_s: float,
    ):
        self.pool = pool
        self.plan = plan
        self.fingerprint = fingerprint
        self.payload = payload
        self.overrides = overrides
        self.io_timeout_s = io_timeout_s
        self.levels: np.ndarray | None = None
        self.rng_mirror: dict[int, dict] = {}

    # ------------------------------------------------------------------
    def _begin_frame_fields(self, shard: int) -> dict[str, Any]:
        owned = self.plan.groups(shard)
        return {
            "key": self.fingerprint,
            "overrides": self.overrides,
            "levels": self.levels,
            "owned": (owned.start, owned.stop),
            "group_rngs": {
                g: self.rng_mirror[g] for g in owned if g in self.rng_mirror
            },
        }

    def _checked(self, shard: int, op: str, reply: dict | None) -> dict:
        if reply is None:
            raise ChannelClosedError(
                f"shard {shard} silent on {op!r} for {self.io_timeout_s}s"
            )
        if "error" in reply:
            raise RuntimeError(f"shard {shard} failed {op!r}: {reply['error']}")
        return reply

    def prepare(self, shard: int) -> None:
        """Ship the heavy problem structure once per fingerprint (warm-pool
        key); raw infrastructure traffic, deliberately outside the bus."""
        handle = self.pool.worker(shard)
        if not handle.alive:
            # Worker died between solves (host failure, not a bus fault):
            # replace it before first contact; the fresh cache re-ships.
            handle = self.pool.respawn(shard)
        if handle.knows(self.fingerprint):
            return
        reply = self.pool.request(
            shard,
            "load_problem",
            key=self.fingerprint,
            payload=self.payload,
            timeout=self.io_timeout_s,
        )
        self._checked(shard, "load_problem", reply)
        handle.mark_known(self.fingerprint)

    def revive(self, shard: int):
        """Respawn a dead worker and replay everything it must hold."""
        handle = self.pool.respawn(shard)
        self.prepare(shard)
        reply = self.pool.request(
            shard, "begin", timeout=self.io_timeout_s, **self._begin_frame_fields(shard)
        )
        self._checked(shard, "begin", reply)
        return handle


class ShardAgent:
    """Coordinator-side bus proxy for one shard worker.

    Registered on the (possibly faulty) :class:`MessageBus` like any
    :class:`~repro.solvers.messaging.ServerAgent`; ``handle`` forwards the
    message as an IPC frame and maps transport outcomes onto the bus
    contract -- a silent or dead worker is a lost reply (``None``), never
    an exception, so :func:`~repro.solvers.messaging.exchange` retry/ack
    and :class:`BusTimeoutError` fallback apply unchanged.
    """

    def __init__(self, name: str, shard: int, session: _ShardSession):
        self.name = name
        self.shard = shard
        self.session = session
        self._pending: tuple[int, dict] | None = None  # in-flight evaluate
        self._result: tuple[int, dict] | None = None  # cached collect reply

    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> Message | None:
        # Worker death is a *host* failure, not a modeled bus fault, so one
        # delivery heals it in place (respawn + state replay + re-forward)
        # rather than burning the sender's retry budget: a run with a
        # killed worker stays bit-identical to one without.  A second death
        # in the same delivery is reported as a lost reply (``None``) and
        # escalates through the usual retry / BusTimeoutError path.
        for _attempt in range(2):
            try:
                self._heal()
                if msg.kind == "evaluate":
                    return self._forward_async(msg)
                if msg.kind == "collect":
                    return self._collect(msg)
                return self._roundtrip(msg)
            except ChannelClosedError:
                continue
        return None

    def _heal(self) -> None:
        if not self.session.pool.worker(self.shard).alive:
            handle = self.session.revive(self.shard)
            if self._pending is not None and (
                self._result is None or self._result[0] != self._pending[0]
            ):
                # The in-flight evaluate died with the worker; re-forward it
                # so the pending collect can still complete.
                handle.channel.send(self._pending[1])

    def _reply(self, msg: Message, kind: str, **payload: Any) -> Message:
        return Message(self.name, msg.sender, kind, payload)

    # ------------------------------------------------------------------
    def _roundtrip(self, msg: Message) -> Message | None:
        session = self.session
        reply = session.pool.request(
            self.shard, msg.kind, timeout=session.io_timeout_s, **msg.payload
        )
        if reply is None:
            return None  # reply missed the window: sender retries
        if "error" in reply:
            if reply.get("missing_problem"):
                # Fingerprint cache miss (first contact after respawn by an
                # external actor): re-ship and retry once, transparently.
                session.pool.worker(self.shard).forget_all()
                session.prepare(self.shard)
                return self._roundtrip(msg)
            raise RuntimeError(f"{self.name}: {reply['error']}")
        return self._reply(msg, "ack", **{
            k: v for k, v in reply.items() if k not in ("seq", "op")
        })

    def _forward_async(self, msg: Message) -> Message:
        pool = self.session.pool
        seq = pool.next_seq()
        frame = {"seq": seq, "op": "evaluate"}
        frame.update(msg.payload)
        pool.worker(self.shard).channel.send(frame)
        self._pending = (seq, frame)
        self._result = None
        return self._reply(msg, "ack", seq=seq)

    def _collect(self, msg: Message) -> Message | None:
        if self._pending is None:
            return None  # nothing in flight this round
        seq = self._pending[0]
        if self._result is not None and self._result[0] == seq:
            reply = self._result[1]
        else:
            reply = self.session.pool.collect(
                self.shard, seq, timeout=self.session.io_timeout_s
            )
            if reply is None:
                return None
            if "error" in reply:
                raise RuntimeError(f"{self.name}: {reply['error']}")
            self._result = (seq, reply)
        return self._reply(msg, "evaluated", objectives=reply["objectives"])


# ======================================================================
# The solver
# ======================================================================
class ShardedGSDSolver(SlotSolver):
    """Algorithm 2 over a process-sharded fleet (see module docstring).

    Parameters
    ----------
    shards:
        Worker-process count.  Shards in excess of the group count idle;
        the ownership map handles non-divisor counts.
    iterations, delta, rng, initial_levels, record_history, failed_groups:
        Exactly as :class:`~repro.solvers.gsd.GSDSolver`.
    draw_mode:
        ``"central"`` (default, bit-identical to ``GSDSolver``) or
        ``"local"`` (per-group worker substreams; shard-count invariant).
    draw_seed:
        Seed of the local-mode per-group substreams
        (``default_rng([draw_seed, g])``).
    bus_factory, retries:
        Fault-injection hooks, exactly as
        :class:`~repro.solvers.messaging.DistributedGSD`.
    deadline_ms:
        Per-solve wall-clock budget, enforced at speculative-block
        granularity (anytime incumbent on expiry, like ``GSDSolver``).
    io_timeout_s:
        Transport safety net per IPC round-trip.  This is *not* the fault
        model -- modeled loss/delay/duplication happens on the bus -- just
        the bound after which a wedged worker counts as a lost reply.
    """

    def __init__(
        self,
        *,
        shards: int,
        iterations: int = 500,
        delta: float | Callable[[int], float] = 1e6,
        rng: np.random.Generator | None = None,
        initial_levels: Sequence[int] | np.ndarray | None = None,
        record_history: bool = False,
        failed_groups: Sequence[int] | None = None,
        draw_mode: str = "central",
        draw_seed: int = 1,
        bus_factory: Callable[[], MessageBus] | None = None,
        retries: int = 0,
        deadline_ms: float | None = None,
        io_timeout_s: float = 120.0,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not callable(delta) and delta <= 0:
            raise ValueError("temperature delta must be positive")
        if draw_mode not in ("central", "local"):
            raise ValueError("draw_mode must be 'central' or 'local'")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if io_timeout_s <= 0:
            raise ValueError("io_timeout_s must be positive")
        self.shards = shards
        self.iterations = iterations
        self.delta = delta
        self.rng = rng if rng is not None else np.random.default_rng(1)
        self.initial_levels = (
            None
            if initial_levels is None
            else np.asarray(initial_levels, dtype=np.int64).copy()
        )
        self.record_history = record_history
        self.failed_groups = (
            np.unique(np.asarray(failed_groups, dtype=np.int64))
            if failed_groups is not None
            else np.empty(0, dtype=np.int64)
        )
        self.draw_mode = draw_mode
        self.draw_seed = int(draw_seed)
        self.bus_factory = bus_factory
        self.retries = retries
        self.deadline_ms = deadline_ms
        self.io_timeout_s = io_timeout_s
        self.last_bus: MessageBus | None = None
        self._pool: ShardWorkerPool | None = None
        self._solve_count = 0
        self._retries_used = 0
        #: Coordinator mirror of the local-mode worker stream positions,
        #: refreshed by every reply that consumed worker randomness; this
        #: is what checkpoints capture.
        self._group_rng_state: dict[int, dict] = {}

    # ------------------------------------------------------------ lifecycle
    @property
    def pool(self) -> ShardWorkerPool:
        """The warm worker pool, spawned on first use."""
        if self._pool is None:
            self._pool = ShardWorkerPool(self.shards, _shard_worker_main)
        return self._pool

    def close(self) -> None:
        """Terminate the worker pool (idempotent; pool respawns on reuse)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ShardedGSDSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Chain RNG, solve counter, and worker RNG stream positions."""
        from ..state.serialize import encode_rng, encode_rng_states

        state: dict[str, Any] = {
            "rng": encode_rng(self.rng),
            "solve_count": self._solve_count,
            "draw_mode": self.draw_mode,
        }
        if self.draw_mode == "local":
            state["group_rngs"] = encode_rng_states(self._group_rng_state)
        return state

    def load_state_dict(self, state: dict) -> None:
        from ..state.serialize import decode_rng, decode_rng_states

        self.rng = decode_rng(state["rng"])
        self._solve_count = int(state["solve_count"])
        self._group_rng_state = decode_rng_states(state.get("group_rngs", {}))

    # ------------------------------------------------------------------
    def _temperature(self, iteration: int) -> float:
        return self.delta(iteration) if callable(self.delta) else float(self.delta)

    def _exchange(
        self, bus: MessageBus, recipient: str, kind: str, payload: dict[str, Any]
    ) -> Message:
        """Retry/ack exchange with the coordinator's accounting (the same
        discipline as :class:`~repro.solvers.messaging.DualLoadCoordinator`)."""
        for attempt in range(self.retries + 1):
            reply = bus.send(Message("driver", recipient, kind, payload))
            if reply is not None:
                if attempt:
                    self._retries_used += attempt
                return reply
        self._retries_used += self.retries
        raise BusTimeoutError(
            f"no reply from {recipient!r} to {kind!r} after "
            f"{self.retries + 1} attempt(s)"
        )

    # ------------------------------------------------------------------
    def solve(self, problem: SlotProblem) -> SlotSolution:
        sp = self.telemetry.span("sharded.solve")
        with sp:
            return self._solve(problem, sp)

    def _solve(self, problem: SlotProblem, sp) -> SlotSolution:
        deadline = SolveDeadline(self.deadline_ms)
        problem.check_feasible()
        fleet = problem.fleet
        rng = self.rng
        G = fleet.num_groups
        if self.failed_groups.size and (
            self.failed_groups.min() < 0 or self.failed_groups.max() >= G
        ):
            raise ValueError("failed group index out of range")
        healthy = np.setdiff1d(np.arange(G), self.failed_groups)
        if healthy.size == 0:
            raise ValueError("every group has failed")

        S = min(self.shards, G)
        plan = ShardPlan(G, S)
        fingerprint, payload = problem_fingerprint(problem)
        session = _ShardSession(
            self.pool, plan, fingerprint, payload,
            _slot_overrides(problem), self.io_timeout_s,
        )
        bus = self.bus_factory() if self.bus_factory is not None else MessageBus()
        agents = [ShardAgent(f"shard-{i}", i, session) for i in range(S)]
        for a in agents:
            bus.register(a)
        self.last_bus = bus
        respawns_before = self.pool.respawns

        local = self.draw_mode == "local"
        if local:
            # Per-group substreams, resumed from the checkpoint mirror.
            for g in range(G):
                if g not in self._group_rng_state:
                    self._group_rng_state[g] = np.random.default_rng(
                        [self.draw_seed, g]
                    ).bit_generator.state
            session.rng_mirror = dict(self._group_rng_state)

        if self.initial_levels is not None:
            levels = self.initial_levels.copy()
            if levels.shape != (G,):
                raise ValueError("initial_levels must have one entry per group")
        else:
            levels = (fleet.num_levels - 1).astype(np.int64)
        levels[self.failed_groups] = -1
        session.levels = levels

        # Configure every shard over the bus (faults and retries apply;
        # the heavy structure ships out-of-band, keyed by fingerprint).
        for i in range(S):
            session.prepare(i)
            self._exchange(
                bus, f"shard-{i}", "begin", session._begin_frame_fields(i)
            )

        def evaluate_rows(
            rows_by_shard: dict[int, list[tuple[int, int | None, int]]],
        ) -> dict[int, float]:
            """Scatter candidate rows to their owner shards and gather.

            Rows of a shard whose evaluate or collect round stays silent
            past the retry budget come back ``inf`` -- a lost pricing
            round is a failed exploration, exactly the
            :class:`DistributedGSD` stance.
            """
            t0 = time.perf_counter() if sp else 0.0
            posted: list[int] = []
            for shard in sorted(rows_by_shard):
                try:
                    self._exchange(
                        bus, f"shard-{shard}", "evaluate",
                        {"rows": rows_by_shard[shard]},
                    )
                    posted.append(shard)
                except BusTimeoutError:
                    pass
            out: dict[int, float] = {}
            for shard in posted:
                try:
                    reply = self._exchange(bus, f"shard-{shard}", "collect", {})
                except BusTimeoutError:
                    continue
                for (bi, _, _), obj in zip(
                    rows_by_shard[shard], reply.payload["objectives"]
                ):
                    out[bi] = float(obj)
            for shard, rows in rows_by_shard.items():
                for bi, _, _ in rows:
                    out.setdefault(bi, np.inf)
            if sp:
                sp.add("sharded.evaluate", time.perf_counter() - t0)
            return out

        def score_base(base_levels: np.ndarray) -> float:
            return evaluate_rows({0: [(0, None, 0)]})[0]

        current = score_base(levels)
        if not np.isfinite(current):
            levels = (fleet.num_levels - 1).astype(np.int64)
            levels[self.failed_groups] = -1
            session.levels = levels
            for i in range(S):
                self._exchange(
                    bus, f"shard-{i}", "sync_levels", {"levels": levels}
                )
            current = score_base(levels)
        best_levels, best = levels.copy(), current

        hist_chain = np.empty(self.iterations)
        hist_best = np.empty(self.iterations)
        hist_acc = np.zeros(self.iterations, dtype=bool)
        hist_temp = np.empty(self.iterations)
        n_solves = 0
        last_improve = 0
        spec_blocks = spec_full = spec_resyncs = spec_wasted = 0

        tele = self.telemetry
        started = time.perf_counter() if tele.enabled else 0.0
        solve_index = -1
        if tele.enabled:
            solve_index = self._solve_count
            self._solve_count += 1

        # Speculative block loop: identical structure (and, in central
        # mode, identical RNG consumption) to GSDSolver's batched path;
        # only the candidate scoring crosses the bus.
        it = 0
        block = _BLOCK_MIN
        while it < self.iterations:
            if deadline.expired():
                break
            B = min(block, self.iterations - it)
            spec_blocks += 1
            snapshot = rng.bit_generator.state
            specs: list[tuple[int, int, float | None]] = []
            if local:
                # Group picks + uniforms stay central (always two draws per
                # iteration); proposals come from the owners' substreams.
                picks = [
                    int(healthy[rng.integers(0, healthy.size)]) for _ in range(B)
                ]
                uniforms = [float(rng.random()) for _ in range(B)]
                explore_by_shard: dict[int, list[tuple[int, int]]] = {}
                for bi, g in enumerate(picks):
                    explore_by_shard.setdefault(plan.owner(g), []).append((bi, g))
                proposals: dict[int, int] = {}
                explored_shards = sorted(explore_by_shard)
                for shard in explored_shards:
                    reply = self._exchange(
                        bus, f"shard-{shard}", "explore",
                        {"rows": explore_by_shard[shard]},
                    )
                    for (bi, _), p in zip(
                        explore_by_shard[shard], reply.payload["proposals"]
                    ):
                        proposals[bi] = int(p)
                    session.rng_mirror.update(
                        {int(g): s for g, s in reply.payload["states"].items()}
                    )
                for bi in range(B):
                    g = picks[bi]
                    p = proposals[bi]
                    u = uniforms[bi] if p != levels[g] else None
                    specs.append((g, p, u))
            else:
                explored_shards = []
                for _ in range(B):
                    g = int(healthy[rng.integers(0, healthy.size)])
                    proposal = int(rng.integers(-1, fleet.num_levels[g]))
                    if proposal == levels[g]:
                        specs.append((g, proposal, None))  # no eval, no uniform
                    else:
                        specs.append((g, proposal, float(rng.random())))

            cand = [bi for bi in range(B) if specs[bi][2] is not None]
            objs: dict[int, float] = {}
            if cand:
                rows_by_shard: dict[int, list[tuple[int, int | None, int]]] = {}
                for bi in cand:
                    g, proposal, _ = specs[bi]
                    rows_by_shard.setdefault(plan.owner(g), []).append(
                        (bi, g, proposal)
                    )
                objs = evaluate_rows(rows_by_shard)

            finite: dict[int, bool] = {}
            consumed = 0
            diverged = False
            for bi in range(B):
                i = it + bi
                delta = self._temperature(i)
                hist_temp[i] = delta
                g, proposal, u = specs[bi]
                if u is None:
                    hist_chain[i], hist_best[i] = current, best
                    consumed += 1
                    continue
                explored = float(objs[bi])
                n_solves += 1
                is_finite = math.isfinite(explored)
                finite[bi] = is_finite
                if is_finite:
                    accept = u < _acceptance_probability(delta, explored, current)
                else:
                    accept = False
                    if not local:
                        diverged = True  # scalar GSD draws no uniform here
                if accept:
                    levels[g] = proposal
                    session.levels = levels
                    # The accept/revert broadcast (Algorithm 2 line 5) must
                    # reach every shard or their mirrors diverge; escape as
                    # BusTimeoutError to the degradation policy otherwise.
                    for i2 in range(S):
                        self._exchange(
                            bus, f"shard-{i2}", "set_level",
                            {"group": int(g), "level": int(proposal)},
                        )
                    current = explored
                    hist_acc[i] = True
                    if explored < best:
                        best = explored
                        best_levels = levels.copy()
                        last_improve = i + 1
                    diverged = True  # later rows scored a stale base
                hist_chain[i], hist_best[i] = current, best
                consumed += 1
                if diverged:
                    break

            if diverged:
                spec_resyncs += 1
                spec_wasted += len(cand) - sum(1 for bi in cand if bi < consumed)
                rng.bit_generator.state = snapshot
                if local:
                    # Central stream: two draws per consumed iteration.
                    for k in range(consumed):
                        rng.integers(0, healthy.size)
                        rng.random()
                    # Worker substreams: un-draw the discarded proposals.
                    for shard in explored_shards:
                        reply = self._exchange(
                            bus, f"shard-{shard}", "resync",
                            {"consumed": consumed},
                        )
                        session.rng_mirror.update(
                            {int(g): s for g, s in reply.payload["states"].items()}
                        )
                else:
                    for k in range(consumed):
                        g2 = int(healthy[rng.integers(0, healthy.size)])
                        rng.integers(-1, fleet.num_levels[g2])
                        if specs[k][2] is not None and finite.get(k, False):
                            rng.random()
                block = _BLOCK_MIN
            else:
                spec_full += 1
                block = min(2 * block, _BLOCK_MAX)
            it += consumed

        completed = it
        truncated = completed < self.iterations
        if truncated:
            hist_chain = hist_chain[:completed]
            hist_best = hist_best[:completed]
            hist_acc = hist_acc[:completed]
            hist_temp = hist_temp[:completed]
            if tele.enabled:
                tele.emit(
                    "deadline.expired",
                    solver=self.name(),
                    budget_ms=float(self.deadline_ms),
                    elapsed_ms=deadline.elapsed_ms(),
                    completed=completed,
                    planned=self.iterations,
                    best_feasible=bool(np.isfinite(best)),
                )
                tele.metrics.counter("deadline.expirations").inc()
            if not np.isfinite(best):
                raise DeadlineExceededError(
                    f"sharded GSD deadline ({self.deadline_ms} ms) expired "
                    f"after {completed}/{self.iterations} iterations with no "
                    "feasible incumbent"
                )

        if not np.isfinite(best):
            raise InfeasibleError(
                "GSD chain never reached a configuration satisfying the "
                "operational caps; increase iterations or relax the caps"
            )

        # Final commit: land the best configuration on every shard and have
        # shard 0 produce the exact solution.  Like DistributedGSD, a
        # transient outage gets a few whole-round retries; a persistent one
        # escapes to the caller's degradation policy.
        t_final = time.perf_counter() if sp else 0.0
        commit_attempts = 1 if self.retries == 0 else 3
        stats = FastPathStats()
        solution_reply: Message | None = None
        for attempt in range(commit_attempts):
            try:
                stats = FastPathStats()
                for i in range(S):
                    reply = self._exchange(
                        bus, f"shard-{i}", "commit",
                        {"levels": best_levels, "want_solution": i == 0},
                    )
                    for key, value in reply.payload["stats"].items():
                        setattr(stats, key, getattr(stats, key) + int(value))
                    if local:
                        states = {
                            int(g): s
                            for g, s in reply.payload["states"].items()
                        }
                        session.rng_mirror.update(states)
                    if i == 0:
                        solution_reply = reply
                break
            except BusTimeoutError:
                if attempt == commit_attempts - 1:
                    raise
        assert solution_reply is not None
        if local:
            self._group_rng_state.update(session.rng_mirror)
        pay = solution_reply.payload
        action = FleetAction(
            levels=best_levels, per_server_load=pay["per_server_load"]
        )
        final_evaluation = pay["evaluation"]
        if sp:
            sp.add("sharded.finalize", time.perf_counter() - t_final)

        if tele.enabled:
            elapsed = time.perf_counter() - started
            acceptance = float(hist_acc.mean()) if completed else 0.0
            metrics = tele.metrics
            metrics.counter("gsd.solves").inc()
            metrics.counter("gsd.inner_solves").inc(stats.inner_solves)
            metrics.counter("gsd.evaluations").inc(n_solves)
            metrics.histogram("gsd.solve_time_s").observe(elapsed)
            metrics.histogram("gsd.acceptance_rate").observe(acceptance)
            tele.emit(
                "sharded.solve",
                solve_index=solve_index,
                shards=S,
                iterations=completed,
                inner_solves=stats.inner_solves,
                evaluations=n_solves,
                best_objective=float(best),
                acceptance_rate=acceptance,
                messages=bus.delivered,
                respawns=self.pool.respawns - respawns_before,
                solve_time_s=elapsed,
            )

        info: dict[str, Any] = {
            "chain_levels": levels.copy(),
            "inner_solves": stats.inner_solves,
            "evaluations": n_solves,
            "fastpath": stats.as_dict(),
            "final_objective": best,
            "speculation": {
                "enabled": True,
                "blocks": spec_blocks,
                "full_blocks": spec_full,
                "resyncs": spec_resyncs,
                "wasted_evaluations": spec_wasted,
            },
            "sharding": {
                "shards": S,
                "draw_mode": self.draw_mode,
                "plan": [len(plan.groups(i)) for i in range(S)],
                "respawns": self.pool.respawns - respawns_before,
            },
            "load_distribution": {
                "nu": pay["nu"],
                "regime": pay["regime"],
                "electricity_weight": pay["electricity_weight"],
                "inner_iters": pay["inner_iters"],
            },
            "messages": bus.delivered,
            "messages_by_kind": dict(bus.by_kind),
            "retries_used": self._retries_used,
        }
        if self.deadline_ms is not None:
            info["deadline"] = {
                "budget_ms": float(self.deadline_ms),
                "elapsed_ms": deadline.elapsed_ms(),
                "expired": truncated,
                "completed": completed,
                "planned": self.iterations,
            }
        fault_stats = getattr(bus, "fault_stats", None)
        if fault_stats is not None:
            info["bus_faults"] = fault_stats()
        if self.record_history:
            info["trace"] = GSDTrace(
                chain_objective=hist_chain,
                best_objective=hist_best,
                accepted=hist_acc,
                temperature=hist_temp,
            )
        return SlotSolution(action=action, evaluation=final_evaluation, info=info)
