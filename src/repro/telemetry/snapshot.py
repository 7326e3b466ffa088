"""Snapshot/restore of full deployment + engine state.

A snapshot captures *everything* a continued run reads: configuration,
rings and membership, per-server mirrors, the front-end's EWMA speed
estimates and counters, every ``random.Random`` stream (including the
module-global named streams of :mod:`repro._rng`), the traffic ledger, and
the columnar telemetry logs.  The contract is **byte-identical
continuation**: running queries ``[0, k)``, snapshotting, restoring in a
fresh process, and running ``[k, n)`` produces exactly the state an
uninterrupted run of ``[0, n)`` produces -- same log columns, same server
counters, same rng draws -- bit for bit (wall-clock-derived fields such as
``scheduling_delay`` excepted, the same exclusion the batched/per-query
differential tests apply).

Take snapshots at a *materialisation point*: between two queries on the
per-query path, or from inside a batched-path
:class:`~repro.sim.fastpath.Action` callback (the engine materialises exact
object state before every action callback runs).  Snapshotting mid-chunk is not
expressible through the public API, so this is not a practical constraint.

Serialisation: scalar/object state goes into a JSON-able ``meta`` dict
(schema-versioned via :data:`SNAPSHOT_SCHEMA`); the telemetry columns ride
alongside as numpy arrays.  :meth:`Snapshot.save` packs both into one
compressed ``.npz`` through the run archives' writer, which leaves out the
columns the others rebuild (:mod:`repro.telemetry.archive`); floats
survive the JSON leg exactly (``repr``-based round trip).

Deployments with real object stores (``store_objects=True``) are refused:
replica inventories are derived state of the reconfigurator and are out of
scope for the telemetry subsystem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from .. import _rng
from .archive import check_columns, read_meta_npz, write_meta_npz

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SnapshotError",
    "Snapshot",
    "capture_deployment",
    "restore_deployment",
]

#: Version of the snapshot layout.  Bump on any incompatible change to the
#: ``meta`` dict or the column set; ``load``/``restore`` refuse mismatches.
SNAPSHOT_SCHEMA = 1

#: rng owners whose aliasing must survive the round trip (deployment,
#: membership and front-end usually share one generator object).
_RNG_OWNERS = ("deployment", "membership", "frontend", "network")


class SnapshotError(RuntimeError):
    """Raised when a deployment cannot be captured or restored."""


@dataclass
class Snapshot:
    """One captured deployment: JSON-able ``meta`` + numpy columns."""

    meta: dict
    columns: dict

    def save(self, path) -> None:
        """Write this snapshot as a compressed ``.npz`` at exactly *path*."""
        write_meta_npz(path, self.meta, self.columns)

    @classmethod
    def load(cls, path) -> "Snapshot":
        """Read a snapshot written by :meth:`save`."""
        fix = "the snapshot is corrupt -- take it again"
        meta, columns, _ = read_meta_npz(path, "snapshot", fix, SnapshotError)
        schema = meta.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise SnapshotError(
                f"{path}: snapshot schema {schema!r} not supported "
                f"(this build reads schema {SNAPSHOT_SCHEMA}); take the "
                "snapshot again with this build"
            )
        check_columns(path, columns, fix, SnapshotError)
        return cls(meta=meta, columns=columns)


# -- capture -----------------------------------------------------------------
def _server_state(server) -> dict:
    return {
        "name": server.name,
        "speed": server.speed,
        "fixed_overhead": server.fixed_overhead,
        "cores": server.cores,
        "power_idle": server.power_idle,
        "power_busy": server.power_busy,
        "lane_busy_until": list(server._lane_busy_until),
        "busy_time": server.busy_time,
        "tasks_run": server.tasks_run,
        "objects_matched": server.objects_matched,
        "failed": server.failed,
        "keep_trace": server.keep_trace,
        "trace": [
            [t.query_id, t.arrival, t.start, t.finish, t.work]
            for t in server.trace
        ],
    }


def _model_state(model) -> dict:
    return {
        "name": model.name,
        "cores": model.cores,
        "match_rate": model.match_rate,
        "disk_rate": model.disk_rate,
        "fixed_overhead": model.fixed_overhead,
        "power": {
            "idle_watts": model.power.idle_watts,
            "busy_watts": model.power.busy_watts,
        },
    }


def _rng_groups(deployment) -> tuple[list, dict]:
    """States of the deployment's generators, deduplicated by identity.

    Components frequently share one ``random.Random`` (the constructor
    hands ``self.rng`` to the membership server and the front-end), and
    the interleaving of their draws is part of the reproducible behaviour
    -- so the restore must rebuild the exact aliasing, not just the
    states.
    """
    rngs = {
        "deployment": deployment.rng,
        "membership": deployment.membership.rng,
        "frontend": deployment.frontend.rng,
        "network": deployment.network.rng,
    }
    groups: list = []
    owner_group: dict = {}
    seen: dict = {}
    for owner in _RNG_OWNERS:
        rng = rngs[owner]
        gi = seen.get(id(rng))
        if gi is None:
            gi = len(groups)
            groups.append(_rng.stream_state(rng))
            seen[id(rng)] = gi
        owner_group[owner] = gi
    return groups, owner_group


def capture_deployment(deployment) -> Snapshot:
    """Freeze *deployment* into a :class:`Snapshot`.

    Call only at a materialisation point (between per-query calls, or from
    inside a batched-path :class:`~repro.sim.fastpath.Action` callback): the
    captured object state must be exact, and mid-chunk the engine's
    arrays are ahead of the objects.
    """
    config = deployment.config
    if config.store_objects or deployment.reconfig is not None:
        raise SnapshotError(
            "deployments with real object stores (store_objects=True) "
            "cannot be snapshotted"
        )
    fe = deployment.frontend
    fe_cfg = fe.config
    net = deployment.network
    rng_groups, rng_owner = _rng_groups(deployment)

    rings_meta = []
    for ring in deployment.rings:
        rings_meta.append(
            {
                "version": ring.version,
                "nodes": [
                    {
                        "name": n.name,
                        "start": n.start,
                        "speed": n.speed,
                        "alive": n.alive,
                        "ring_id": n.ring_id,
                        "meta": n.meta,
                    }
                    for n in ring.nodes()
                ],
            }
        )

    membership = deployment.membership
    meta = {
        "schema": SNAPSHOT_SCHEMA,
        "config": {
            "models": [_model_state(m) for m in config.models],
            "p": config.p,
            "n_rings": config.n_rings,
            "dataset_size": config.dataset_size,
            "in_memory": config.in_memory,
            "seed": config.seed,
            "failure_timeout": config.failure_timeout,
            "fixed_overhead": config.fixed_overhead,
            "store_objects": False,
            "n_objects_stored": config.n_objects_stored,
            "update_cost": config.update_cost,
            "charge_scheduling": config.charge_scheduling,
        },
        "frontend_config": {
            "method": fe_cfg.method,
            "random_starts": fe_cfg.random_starts,
            "adjust_ranges": fe_cfg.adjust_ranges,
            "max_splits": fe_cfg.max_splits,
            "ewma_alpha": fe_cfg.ewma_alpha,
            "fixed_overhead": fe_cfg.fixed_overhead,
            "failure_delta": fe_cfg.failure_delta,
        },
        "network": {"rtt": net.rtt, "jitter": net.jitter},
        "rng": {
            "groups": rng_groups,
            "owners": rng_owner,
            "global": _rng.capture_streams(),
        },
        "rings": rings_meta,
        "membership": {
            "active": list(membership.active),
            "moves": membership.moves,
            "inserts": membership.inserts,
            "history": {
                name: [rec.ring_id, rec.start, rec.speed]
                for name, rec in membership._history.items()
            },
        },
        "frontend": {
            "query_counter": fe._query_counter,
            "total_iterations": fe.total_iterations,
            "total_estimates": fe.total_estimates,
            "queries_scheduled": fe.queries_scheduled,
            "stats": {
                name: {
                    "speed_estimate": st.speed_estimate,
                    "busy_until": st.busy_until,
                    "last_seen": st.last_seen,
                    "outstanding": st.outstanding,
                    "completed": st.completed,
                }
                for name, st in fe.stats.items()
            },
        },
        "servers": [_server_state(s) for s in deployment.servers.values()],
        "retired": [_server_state(s) for s in deployment.retired.values()],
        "model_of": dict(deployment.model_of),
        "known_dead": dict(deployment._known_dead),
        "next_node_idx": deployment._next_node_idx,
        "scheduling_wallclock": deployment.scheduling_wallclock,
        "log_dropped": deployment.log.dropped,
    }
    try:
        meta = json.loads(json.dumps(meta))  # validate + normalise
    except (TypeError, ValueError) as exc:
        raise SnapshotError(
            f"deployment state is not JSON-serialisable: {exc}"
        ) from exc

    log = deployment.log
    bd = deployment.breakdowns
    columns = {
        "log_query_id": log.column("query_id").copy(),
        "log_arrival": log.column("arrival").copy(),
        "log_finish": log.column("finish").copy(),
        "log_pq": log.column("pq").copy(),
        "log_subqueries": log.column("subqueries").copy(),
        "log_scheduling": log.column("scheduling").copy(),
        "bd_scheduling": bd.column("scheduling").copy(),
        "bd_network": bd.column("network").copy(),
        "bd_queueing": bd.column("queueing").copy(),
        "bd_service": bd.column("service").copy(),
        "bd_total": bd.column("total").copy(),
        "ledger": np.array(
            [
                deployment.ledger.query_messages,
                deployment.ledger.query_bytes,
                deployment.ledger.result_messages,
                deployment.ledger.result_bytes,
                deployment.ledger.update_messages,
                deployment.ledger.update_bytes,
                deployment.ledger.control_messages,
                deployment.ledger.control_bytes,
                deployment.ledger.cross_rack_bytes,
            ],
            dtype=np.int64,
        ),
    }
    return Snapshot(meta=meta, columns=columns)


# -- restore -----------------------------------------------------------------
def _restore_server(state: dict):
    from ..sim.server import SimServer, TaskRecord

    server = SimServer(
        name=state["name"],
        speed=state["speed"],
        fixed_overhead=state["fixed_overhead"],
        cores=state["cores"],
        power_idle=state["power_idle"],
        power_busy=state["power_busy"],
    )
    server._lane_busy_until = [float(x) for x in state["lane_busy_until"]]
    server.busy_time = state["busy_time"]
    server.tasks_run = state["tasks_run"]
    server.objects_matched = state["objects_matched"]
    server.failed = state["failed"]
    server.keep_trace = state["keep_trace"]
    server.trace = [TaskRecord(*row) for row in state["trace"]]
    return server


def restore_deployment(snapshot: Snapshot):
    """Rebuild a live :class:`~repro.cluster.deployment.Deployment`.

    The returned deployment continues byte-identically: same rng draws,
    same scheduling decisions, same telemetry columns.  Listener lists
    start empty (subscribers are process-local), and the batched path's
    cover-table cache starts cold (it is a pure function of rings + pq
    and rebuilds on first use).  Module-global rng streams
    (:func:`repro._rng.capture_streams`) are restored as a side effect.
    """
    from ..cluster.deployment import Deployment, DeploymentConfig
    from ..cluster.models import ServerModel
    from ..core.frontend import FrontEnd, FrontEndConfig, NodeStats
    from ..core.membership import MembershipServer, _NodeRecord
    from ..core.ring import Ring, RingNode
    from ..sim.energy import PowerProfile
    from ..sim.network import NetworkModel, TrafficLedger
    from ..telemetry.records import BreakdownLog, DelayLog

    meta = snapshot.meta
    schema = meta.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"snapshot schema {schema!r} not supported "
            f"(this build reads schema {SNAPSHOT_SCHEMA})"
        )
    cols = snapshot.columns

    rng_meta = meta["rng"]
    group_rngs = [_rng.stream_from_state(s) for s in rng_meta["groups"]]
    owner_rng = {
        owner: group_rngs[gi] for owner, gi in rng_meta["owners"].items()
    }
    _rng.restore_streams(rng_meta["global"])

    fe_cfg = FrontEndConfig(**meta["frontend_config"])
    models = [
        ServerModel(
            name=m["name"],
            cores=m["cores"],
            match_rate=m["match_rate"],
            disk_rate=m["disk_rate"],
            fixed_overhead=m["fixed_overhead"],
            power=PowerProfile(**m["power"]),
        )
        for m in meta["config"]["models"]
    ]
    net = NetworkModel(
        rtt=meta["network"]["rtt"],
        jitter=meta["network"]["jitter"],
        rng=owner_rng["network"],
    )
    cfg_meta = meta["config"]
    config = DeploymentConfig(
        models=models,
        p=cfg_meta["p"],
        n_rings=cfg_meta["n_rings"],
        dataset_size=cfg_meta["dataset_size"],
        in_memory=cfg_meta["in_memory"],
        seed=cfg_meta["seed"],
        frontend=fe_cfg,
        network=net,
        failure_timeout=cfg_meta["failure_timeout"],
        fixed_overhead=cfg_meta["fixed_overhead"],
        store_objects=False,
        n_objects_stored=cfg_meta["n_objects_stored"],
        update_cost=cfg_meta["update_cost"],
        charge_scheduling=cfg_meta["charge_scheduling"],
    )

    rings = []
    for ring_meta in meta["rings"]:
        ring = Ring()
        for nd in ring_meta["nodes"]:
            node = RingNode(
                nd["name"], nd["start"], speed=nd["speed"], ring_id=nd["ring_id"]
            )
            node.alive = nd["alive"]
            node.meta = dict(nd["meta"])
            ring.add_node(node)
        ring._version = ring_meta["version"]
        rings.append(ring)

    ms_meta = meta["membership"]
    membership = MembershipServer(
        n_rings=max(1, len(rings)), rng=owner_rng["membership"]
    )
    membership.rings = rings
    membership.active = list(ms_meta["active"])
    membership.moves = ms_meta["moves"]
    membership.inserts = ms_meta["inserts"]
    membership._history = {
        name: _NodeRecord(ring_id=rec[0], start=rec[1], speed=rec[2])
        for name, rec in ms_meta["history"].items()
    }

    fe_meta = meta["frontend"]
    frontend = FrontEnd(
        rings, config.dataset_size, fe_cfg, rng=owner_rng["frontend"]
    )
    frontend.stats = {
        name: NodeStats(**st) for name, st in fe_meta["stats"].items()
    }
    frontend._query_counter = fe_meta["query_counter"]
    frontend.total_iterations = fe_meta["total_iterations"]
    frontend.total_estimates = fe_meta["total_estimates"]
    frontend.queries_scheduled = fe_meta["queries_scheduled"]

    ledger = TrafficLedger(*(int(x) for x in cols["ledger"]))

    log = DelayLog(dropped=meta["log_dropped"])
    log.append_columns(
        cols["log_query_id"],
        cols["log_arrival"],
        cols["log_finish"],
        cols["log_pq"],
        cols["log_subqueries"],
        cols["log_scheduling"],
    )
    breakdowns = BreakdownLog()
    breakdowns.append_columns(
        cols["bd_scheduling"],
        cols["bd_network"],
        cols["bd_queueing"],
        cols["bd_service"],
        cols["bd_total"],
    )

    dep = Deployment.__new__(Deployment)
    dep.config = config
    dep.rng = owner_rng["deployment"]
    dep.membership = membership
    dep.rings = membership.rings
    dep.model_of = dict(meta["model_of"])
    dep.servers = {
        s["name"]: _restore_server(s) for s in meta["servers"]
    }
    dep.frontend = frontend
    dep.network = net
    dep.ledger = ledger
    dep.log = log
    dep.breakdowns = breakdowns
    dep.scheduling_wallclock = meta["scheduling_wallclock"]
    dep.stores = {}
    dep.reconfig = None
    dep._known_dead = dict(meta["known_dead"])
    dep.chunk_listeners = []
    dep.retired = {
        s["name"]: _restore_server(s) for s in meta["retired"]
    }
    dep._next_node_idx = meta["next_node_idx"]
    dep.cover_tables = None
    return dep
