"""The per-layer ledger: which entry points are traced, and what they add up to.

The layers are the ``repro`` packages on the benchmark's paths::

    sim net phy mac odmrp probing core traffic experiments

Every wrapper is installed from here, through public entry points, and
removed again by :meth:`Ledger.uninstall`; no file under ``src/`` knows
it is being traced.

* **Dispatch.**  ``Simulator.schedule``/``schedule_at`` hand the engine a
  dispatcher in place of the callback, so every event that fires is a
  span attributed to its callback's package.  ``Timer._fire`` and
  ``PeriodicTask._fire`` are attributed to the package of the callback
  they fire.  ``Simulator.run`` is itself a ``sim`` span, so the event
  loop's own work (heap pops) is ``sim`` self time.
* **Entry points.**  The channel's transmission start, node send and
  delivery (net); fading draws, batched fading and reception decisions
  (phy); MAC enqueue and medium/tx notifications (mac); packet handlers
  through ``Node.wrap_handler`` (odmrp, probing); the metric's
  ``link_cost``/``combine`` and ``NeighborTable.link_cost`` (core);
  member delivery into the sink (traffic); scenario build, result
  collection, sweep execution and cache I/O (experiments).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import parallel, runner, scenarios
from repro.experiments.executors import SweepExecutor
from repro.experiments.results import RunResult
from repro.mac.csma import CsmaMac
from repro.net.channel import WirelessChannel
from repro.net.node import Node
from repro.net.packet import PacketKind
from repro.phy.reception import ReceptionModel
from repro.probing.neighbor_table import NeighborTable
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle, EventPriority
from repro.sim.process import PeriodicTask, Timer

from tracing import Tracer

LAYERS = (
    "sim", "net", "phy", "mac", "odmrp", "probing", "core", "traffic",
    "experiments",
)

#: Packet kinds whose handlers are traced (registered by the ODMRP
#: router and the probing neighbor table).
HANDLED_KINDS = (
    PacketKind.JOIN_QUERY,
    PacketKind.JOIN_REPLY,
    PacketKind.DATA,
    PacketKind.PROBE,
    PacketKind.PROBE_PAIR_SMALL,
    PacketKind.PROBE_PAIR_LARGE,
)
PROBE_KINDS = ("probe", "probe_pair_small", "probe_pair_large")

BUILD = "build_simulation_scenario"
COLLECT = "collect_result"
RUN = "Simulator.run"


def layer_of(obj: Any) -> str:
    """The ``repro`` package that defines ``obj`` ("other" if none)."""
    parts = (getattr(obj, "__module__", None) or "").split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


def _qualname(obj: Any) -> str:
    return getattr(obj, "__qualname__", type(obj).__name__)


def _call(callback: Callable[..., Any], *args: Any) -> Any:
    return callback(*args)


def frames_on_air(result: RunResult) -> float:
    """Frames the channel put on the air during one run."""
    return sum(
        value for name, value in result.counters.items()
        if name.startswith("channel.tx.")
    )


class Ledger:
    """Installs the layer wrappers and turns spans and counts into metrics."""

    def __init__(self, tracer: Tracer, record_runs: int = 0) -> None:
        self.tracer = tracer
        #: Runs (build through collect) whose raw spans are recorded;
        #: callers that record by sim-time window leave this at 0.
        self.record_runs = record_runs
        self.scheduled = 0
        self.cancelled = 0
        self.queue_depth_max = 0
        self.receivers = 0
        self.batch_draws = 0
        self.events = 0
        self.mac_backoffs = 0
        self.mac_frames = 0
        self.mac_queue_drops = 0
        self.cache_hits = 0
        self.results: List[RunResult] = []
        self._handlers: List[Tuple[Node, PacketKind, Callable[..., Any]]] = []
        self._build: Optional[Callable[..., Any]] = None
        self._collect: Optional[Callable[..., Any]] = None

    # ------------------------------------------------------------------
    # Installation

    def install(self) -> None:
        """Wrap the class- and module-level entry points."""
        t = self.tracer
        self._build = t.wrap(scenarios.build_simulation_scenario, BUILD, "experiments")
        self._collect = t.wrap(runner.collect_result, COLLECT, "experiments")

        t.patch_traced(Simulator, "run", RUN, "sim")
        dispatch = self._dispatcher()
        for attr in ("schedule", "schedule_at"):
            t.patch(Simulator, attr, self._scheduler(
                t.wrap(getattr(Simulator, attr), f"Simulator.{attr}", "sim"),
                dispatch,
            ))
        cancel = EventHandle.cancel

        def counted_cancel(handle: EventHandle) -> bool:
            done = cancel(handle)
            self.cancelled += done
            return done

        t.patch(EventHandle, "cancel", counted_cancel)

        t.patch_traced(
            WirelessChannel, "begin_transmission",
            "WirelessChannel.begin_transmission", "net",
            after=self._note_transmission,
        )
        for attr in ("send_broadcast", "send_unicast", "deliver"):
            t.patch_traced(Node, attr, f"Node.{attr}", "net")
        t.patch_traced(ReceptionModel, "decide", "ReceptionModel.decide", "phy")
        for attr in ("enqueue", "on_medium_state", "on_tx_complete"):
            t.patch_traced(CsmaMac, attr, f"CsmaMac.{attr}", "mac")
        t.patch_traced(NeighborTable, "link_cost", "NeighborTable.link_cost", "core")

        t.patch_traced(
            SweepExecutor, "execute", "SweepExecutor.execute", "experiments",
            after=self._note_outcomes,
        )
        t.patch_traced(parallel, "cache_load", "cache_load", "experiments")
        t.patch_traced(parallel, "cache_store", "cache_store", "experiments")
        # Runs a sweep executes inline reach build and collect through
        # the runner module's globals.
        t.patch(runner, "build_simulation_scenario", self.build)
        t.patch(runner, "collect_result", self.collect)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and packet handler."""
        while self._handlers:
            node, kind, handler = self._handlers.pop()
            node.wrap_handler(kind, lambda _traced, original=handler: original)
        self.tracer.unpatch_all()

    def build(self, protocol: str, config: Any = None, router_class: Any = None) -> Any:
        """Traced ``build_simulation_scenario``, then wrap the scenario."""
        if len(self.results) < self.record_runs:
            self.tracer.recording = True
        scenario = self._build(protocol, config, router_class)
        self.install_scenario(scenario)
        return scenario

    def collect(self, scenario: Any, telemetry_path: Optional[str] = None) -> RunResult:
        """Traced ``collect_result``; the run's totals join the ledger."""
        result = self._collect(scenario, telemetry_path=telemetry_path)
        self.results.append(result)
        self.events += scenario.network.sim.events_executed
        for node in scenario.network.nodes:
            mac = node.mac
            self.mac_backoffs += mac.backoffs
            self.mac_frames += mac.frames_sent
            self.mac_queue_drops += mac.frames_dropped_queue
        if len(self.results) <= self.record_runs:
            self.tracer.recording = False
        return result

    def install_scenario(self, scenario: Any) -> None:
        """Wrap the entry points that live on one built scenario."""
        t = self.tracer
        channel = scenario.network.channel
        t.patch_traced(channel.fading, "sample_link_gain", "fading.sample_link_gain", "phy")
        sampler = channel._vector_sampler
        if sampler is not None:
            t.patch_traced(sampler, "gains", "sampler.gains", "phy", after=self._note_batch)
        metric = scenario.metric
        if metric is not None:
            for attr in ("link_cost", "combine"):
                t.patch_traced(metric, attr, f"metric.{attr}", "core")
        for router in scenario.routers.values():
            if router.on_deliver is not None:
                t.patch_traced(router, "on_deliver", "MulticastSink.on_deliver", "traffic")
        for node in scenario.network.nodes:
            for kind in HANDLED_KINDS:
                self._wrap_handler(node, kind)

    def _wrap_handler(self, node: Node, kind: PacketKind) -> None:
        def traced(handler: Callable[..., Any]) -> Callable[..., Any]:
            self._handlers.append((node, kind, handler))
            return self.tracer.wrap(handler, f"handler:{kind.value}", layer_of(handler))

        try:
            node.wrap_handler(kind, traced)
        except ValueError:
            pass  # this node registered no handler for the kind

    def _scheduler(
        self, timed: Callable[..., Any], dispatch: Callable[..., Any]
    ) -> Callable[..., Any]:
        """A ``Simulator.schedule`` that schedules ``dispatch(callback, *args)``."""

        def schedule(sim: Simulator, when: float, callback: Callable[..., Any], *args: Any,
                     priority: int = EventPriority.DEFAULT) -> EventHandle:
            handle = timed(sim, when, dispatch, callback, *args, priority=priority)
            self.scheduled += 1
            depth = sim.queue_depth
            if depth > self.queue_depth_max:
                self.queue_depth_max = depth
            return handle

        return schedule

    def _dispatcher(self) -> Callable[..., Any]:
        """A callback that runs ``callback(*args)`` as a span of its package."""
        timer_fires = (Timer._fire, PeriodicTask._fire)
        traced_by_code: Dict[Any, Callable[..., Any]] = {}
        wrap = self.tracer.wrap

        def dispatch(callback: Callable[..., Any], *args: Any) -> Any:
            target = callback
            if getattr(callback, "__func__", None) in timer_fires:
                target = callback.__self__._callback
            function = getattr(target, "__func__", target)
            key = getattr(function, "__code__", None) or _qualname(function)
            traced = traced_by_code.get(key)
            if traced is None:
                traced = traced_by_code[key] = wrap(
                    _call, f"dispatch:{_qualname(function)}", layer_of(function)
                )
            return traced(callback, *args)

        return dispatch

    def _note_transmission(self, tx: Any) -> None:
        if tx is not None:
            self.receivers += len(tx.touched)

    def _note_batch(self, gains: Any) -> None:
        self.batch_draws += len(gains)

    def _note_outcomes(self, outcomes: Any) -> None:
        self.cache_hits += sum(1 for outcome in outcomes if outcome.from_cache)

    # ------------------------------------------------------------------
    # Metrics

    def metrics(self, wall_s: float, overhead_share: float) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric: name -> (value, unit).

        ``wall_s`` is the traced wall time the spans cover and
        ``overhead_share`` how much longer the traced run took than the
        same work with tracing off.
        """
        t = self.tracer

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        counters: Dict[str, float] = {}
        for result in self.results:
            for name, value in result.counters.items():
                counters[name] = counters.get(name, 0.0) + value
        out: Dict[str, Tuple[float, str]] = {}
        layers = t.by_layer()
        for layer in LAYERS:
            self_s, calls = layers.get(layer, (0.0, 0))
            out[f"{layer}.self_share"] = (share(self_s, wall_s), "fraction")
            out[f"{layer}.calls"] = (calls, "count")

        transmissions = sum(frames_on_air(result) for result in self.results)
        rx_ok = counters.get("phy.rx_ok", 0.0)
        rx_failed = sum(
            counters.get(f"phy.rx_failed_{cause}", 0.0)
            for cause in ("weak", "collision", "half_duplex")
        )
        out["net.transmissions"] = (transmissions, "count")
        out["net.receivers_per_tx"] = (
            share(self.receivers, t.calls("WirelessChannel.begin_transmission")), "1/frame"
        )
        out["net.begin_tx_self_s"] = (t.stats["WirelessChannel.begin_transmission"][0], "s")
        out["net.end_tx_self_s"] = (
            t.stats.get("dispatch:WirelessChannel._end_transmission", [0.0])[0], "s"
        )
        out["net.sense_flips"] = (t.calls("CsmaMac.on_medium_state"), "count")
        out["net.rx_ok_share"] = (share(rx_ok, rx_ok + rx_failed), "fraction")

        out["phy.fading_draws"] = (t.calls("fading.sample_link_gain") + self.batch_draws, "count")
        out["phy.decisions"] = (t.calls("ReceptionModel.decide"), "count")
        out["phy.fading_batches"] = (t.calls("sampler.gains"), "count")

        out["sim.events"] = (self.events, "count")
        out["sim.scheduled"] = (self.scheduled, "count")
        out["sim.cancelled_share"] = (share(self.cancelled, self.scheduled), "fraction")
        out["sim.queue_depth_max"] = (self.queue_depth_max, "count")

        out["mac.enqueued"] = (t.calls("CsmaMac.enqueue"), "count")
        out["mac.backoffs_per_frame"] = (share(self.mac_backoffs, self.mac_frames), "1/frame")
        out["mac.queue_drops"] = (self.mac_queue_drops, "count")

        query_rx = t.calls("handler:join_query")
        data_rx = t.calls("handler:data")
        out["odmrp.query_rx"] = (query_rx, "count")
        out["odmrp.query_duplicate_share"] = (
            share(counters.get("odmrp.query_duplicate_dropped", 0.0), query_rx), "fraction"
        )
        out["odmrp.data_rx"] = (data_rx, "count")
        out["odmrp.data_duplicate_share"] = (
            share(counters.get("odmrp.data_duplicate", 0.0), data_rx), "fraction"
        )

        out["probing.probe_rx"] = (sum(t.calls(f"handler:{kind}") for kind in PROBE_KINDS), "count")
        out["probing.probe_bytes"] = (sum(result.probe_bytes for result in self.results), "B")
        out["core.link_cost_calls"] = (t.calls("metric.link_cost"), "count")
        out["core.combine_calls"] = (t.calls("metric.combine"), "count")
        out["traffic.offered"] = (sum(result.offered_packets for result in self.results), "count")
        out["traffic.deliveries"] = (t.calls("MulticastSink.on_deliver"), "count")

        run_busy_s = t.total_seconds(BUILD) + t.total_seconds(RUN) + t.total_seconds(COLLECT)
        out["experiments.build_s"] = (t.total_seconds(BUILD), "s")
        out["experiments.collect_s"] = (t.total_seconds(COLLECT), "s")
        out["experiments.run_busy_s"] = (run_busy_s, "s")
        out["experiments.harness_overhead_share"] = (1.0 - share(run_busy_s, wall_s), "fraction")
        out["experiments.cache_hits"] = (self.cache_hits, "count")
        out["experiments.cache_io_share"] = (
            share(t.total_seconds("cache_load") + t.total_seconds("cache_store"), wall_s),
            "fraction",
        )

        out["trace.overhead_share"] = (overhead_share, "fraction")
        out["trace.spans"] = (t.span_count(), "count")
        out["trace.wall_s"] = (wall_s, "s")
        return out
