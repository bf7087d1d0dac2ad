"""The shared wireless broadcast medium.

Every transmission is visible to every node whose *mean* received power
clears an audibility cutoff (precomputed while the topology holds; under
mobility, re-derived per update tick via :meth:`invalidate_topology`).
For each audible node the channel samples one fading realization, feeds
the power into that node's carrier-sense and interference bookkeeping,
and registers a pending reception if the faded power is decodable.  At
end of transmission each pending reception is decided by the receiver's
SINR rule.

Subclasses can override :meth:`_sampled_power` to replace the
pathloss-times-fading model; the testbed emulation uses this to drive the
same MAC with empirically measured link loss rates.

Two scale paths keep large meshes tractable without changing results:

* ``finalize()`` prunes its audibility scan through a
  :class:`~repro.net.topology.SpatialGridIndex` when the propagation
  model can bound its reach analytically, turning the O(N^2) pairing
  into one exact power test per node inside each sender's reach.
* ``begin_transmission`` draws a whole transmission's fading in one
  call -- a numpy batch (:mod:`repro.phy.vectorized`) or the fading
  model's pure-Python ``sample_link_gains`` -- both bit-identical to
  one draw per receiver, then makes one pass over the receivers.  On
  the scalar backend with correlated Rayleigh fading, a sender whose
  links share one last-update time skips the call: each link's AR(1)
  step is drawn inside that pass (``_fused_start``).  The backend is
  chosen per channel -- never per sender, since mixing would
  desynchronize the cloned RNG stream from the scalar one.
* The "compiled" backend runs the fused frame-start pass in C
  (:mod:`repro.phy.kernel`), operation for operation as the Python pass
  does; every other step -- a sender's first frame, the frame-end
  withdrawal, decisions, deliveries -- stays in Python.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.topology import SpatialGridIndex
from repro.phy.fading import (
    TWOPI,
    CorrelatedRayleighFading,
    FadingModel,
    NoFading,
)
from repro.phy.propagation import PropagationModel, TwoRayGroundPropagation
from repro.phy.reception import Reception
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.trace import CounterSet

#: Node count from which ``finalize()`` routes its audibility scan
#: through the spatial grid index (below it the brute scan is cheaper).
GRID_MIN_NODES = 64

#: Node count from which ``phy_backend="auto"`` picks the vectorized
#: reception path (results are bit-identical either way); below it
#: "auto" picks the compiled kernel when it loads and the fused pass
#: applies, else the scalar loop.  Read from the ``phy_crossover`` row
#: of BENCH_perf.json: at the paper's density the scalar backend's
#: fused frame-start pass ties numpy from 32 to 64 nodes (within about
#: 10 % either way, run to run) and trails it by 6-14 % at 100, while
#: importing numpy costs a run about 14 MiB (a third more peak memory
#: on a 50-node run), which only wider fan-outs repay.
VECTOR_MIN_NODES = 64

PHY_BACKENDS = ("auto", "scalar", "compiled", "vectorized")


def backend_unavailable(backend: str) -> Optional[str]:
    """Why ``backend`` cannot run in this interpreter, or ``None``.

    "vectorized" needs numpy and "compiled" the kernel build; the
    others always run.
    """
    if backend == "vectorized":
        try:
            import repro.phy.vectorized  # noqa: F401
        except ImportError as exc:
            return str(exc)
    elif backend == "compiled":
        from repro.phy import kernel

        reason = kernel.unavailable_reason()
        if reason is not None:
            return f"the compiled PHY kernel is unavailable: {reason}"
    return None


class Transmission:
    """One frame in flight."""

    __slots__ = ("sender_id", "packet", "dest_id", "start_time", "end_time",
                 "touched", "powers", "decoding", "notify_sender", "sender")

    def __init__(
        self,
        sender: Node,
        packet: Packet,
        dest_id: int,
        start_time: float,
        end_time: float,
        notify_sender: bool,
    ) -> None:
        self.sender = sender
        self.sender_id = sender.node_id
        self.packet = packet
        self.dest_id = dest_id
        self.start_time = start_time
        self.end_time = end_time
        self.notify_sender = notify_sender
        #: Receivers holding a power contribution from this frame.
        self.touched: List[Node] = []
        #: Each touched receiver's faded power (same order): the frame's
        #: share of that receiver's ``current_power_mw``.
        self.powers: List[float] = []
        #: The subset (same order) holding a pending reception of it.
        self.decoding: List[Node] = []


class ChannelError(RuntimeError):
    """Raised on physically impossible requests (double transmission)."""


class _FanOut:
    """One sender's audible receivers as parallel columns.

    Mirrors one ``_audible`` list in audible-list order, so element
    ``k`` of every column is receiver ``k``: the receivers, their ids
    (the list object the scalar fading batch keys its link state on),
    mean powers, decode thresholds and carrier-sense thresholds.  On
    the vectorized backend it also holds the mean powers as a numpy
    array and the sampler's per-link fading state.
    """

    __slots__ = ("receivers", "receiver_ids", "mean_mw", "rx_thr",
                 "cs_thr", "mean_array", "slot")

    def __init__(self, audible: List[Tuple[Node, float, float]]) -> None:
        columns = tuple(zip(*audible)) or ((), (), ())
        self.receivers, self.mean_mw, self.rx_thr = map(list, columns)
        self.receiver_ids = [receiver.node_id for receiver in self.receivers]
        self.cs_thr = [
            receiver.params.carrier_sense_threshold_mw
            for receiver in self.receivers
        ]
        self.mean_array = None
        self.slot = None


class WirelessChannel:
    """Shared medium connecting a set of (possibly mobile) nodes."""

    def __init__(
        self,
        sim: Simulator,
        propagation: Optional[PropagationModel] = None,
        fading: Optional[FadingModel] = None,
        audible_margin_db: float = 10.0,
        phy_backend: str = "auto",
    ) -> None:
        if phy_backend not in PHY_BACKENDS:
            raise ChannelError(
                f"unknown phy_backend {phy_backend!r}; "
                f"expected one of {PHY_BACKENDS}"
            )
        self.sim = sim
        self.propagation = propagation or TwoRayGroundPropagation()
        self.fading = fading or NoFading()
        self.audible_margin_linear = 10.0 ** (audible_margin_db / 10.0)
        #: Requested reception backend ("auto" resolves at finalize).
        self.phy_backend = phy_backend
        #: What finalize() actually picked: "scalar", "compiled" or
        #: "vectorized".
        self.phy_backend_resolved: Optional[str] = None
        self.nodes: List[Node] = []
        self.counters = CounterSet()
        #: sender id -> [(receiver, mean power, rx threshold)], with the
        #: receiver's decode threshold baked in so the per-transmission
        #: loop never chases ``receiver.params``.
        self._audible: Dict[int, List[Tuple[Node, float, float]]] = {}
        #: sender id -> the same lists as columns, for the fan-out.
        self._fanout: Dict[int, _FanOut] = {}
        self._fading_rng = sim.rng.stream("phy.fading")
        self._finalized = False
        self._connectivity_cache: Optional[Dict[int, List[int]]] = None
        self._tx_counter_names: Dict[Any, str] = {}
        #: Transmissions currently on the air, in start order (a dict
        #: used as an ordered set); node power ledgers are rebuilt from
        #: their ``touched``/``powers`` columns.
        self._in_flight: Dict[Transmission, None] = {}
        #: True when the faded power is provably the mean power: NoFading
        #: draws gain 1.0 for every packet and no subclass has replaced
        #: ``_sampled_power``, so the sample (and its virtual dispatch)
        #: can be skipped entirely in ``begin_transmission``.
        self._deterministic_power = False
        #: True when ``_sampled_power`` is the base implementation, so
        #: the scalar loop may call the fading model directly and the
        #: vectorized backend may replicate it with batched samplers.
        self._inline_fading = False
        #: The scalar backend's correlated-Rayleigh model when its AR(1)
        #: update may be drawn inside the frame-start pass (see
        #: ``CorrelatedRayleighFading.uniform_row``), else ``None``.
        self._fused_fading: Optional[CorrelatedRayleighFading] = None
        #: The compiled kernel module once this channel resolved
        #: "compiled" (it then owns ``_fading_rng``), else ``None``.
        self._kernel = None
        #: Count of nodes with the radio administratively down
        #: (maintained via :meth:`note_active_change`), so the batched
        #: path skips building an active-subset mask when all are up.
        self._inactive_nodes = 0
        #: Vectorized-backend state; populated by finalize() when the
        #: resolved backend is "vectorized".
        self._vectorized = False
        self._vector_sampler = None
        self._np = None
        #: Per-link fading state archive for the vectorized backend:
        #: sender id -> receiver id -> dumped sampler state.  The scalar
        #: CorrelatedRayleighFading keeps every link's AR(1) state in a
        #: dict it never prunes, so a link that leaves audibility and
        #: later returns resumes its old state; this archive gives the
        #: batched path the same memory so both backends stay
        #: bit-identical under mobility-driven audibility churn.
        self._vector_state_archive: Dict[int, Dict[int, tuple]] = {}
        #: Persistent spatial index over node positions (large meshes
        #: with an analytically bounded reach only); kept in sync by
        #: note_position_change so topology re-derivations stay pruned.
        self._grid: Optional[SpatialGridIndex] = None
        self._grid_reach: Optional[float] = None
        self._node_slots: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction

    def register_node(self, node: Node) -> None:
        if self._finalized:
            raise ChannelError("cannot add nodes after finalize()")
        node.channel = self
        self.nodes.append(node)

    def finalize(self) -> None:
        """Precompute per-sender audibility lists for the current layout.

        Re-running ``finalize()`` -- or, after position changes, the
        cheaper :meth:`invalidate_topology` -- is the only legal way to
        change the topology; both invalidate every derived cache
        (audibility lists, the memoized connectivity map, the vectorized
        backend's per-sender arrays -- whose per-link fading state is
        migrated by receiver id, exactly as the scalar model's keyed
        dict survives a re-finalize).

        On meshes of :data:`GRID_MIN_NODES` or more, the O(N^2) pairing
        scan is pruned through a persistent :class:`SpatialGridIndex`
        with cells of half the propagation model's analytic reach: its
        in-disk query yields a superset of each sender's audible nodes
        (sorted by node index, i.e. registration order), so the power
        test runs about once per audible pair, and the exact per-pair
        power test decides audibility just as in the brute scan -- the
        resulting lists are bit-identical.  The grid is kept in sync
        incrementally by :meth:`note_position_change` (an O(1)
        re-bucket per move), so mobility ticks pay the pruned
        re-derivation cost, never a full index rebuild.
        """
        nodes = self.nodes
        self._node_slots = {
            node.node_id: index for index, node in enumerate(nodes)
        }
        self._grid = None
        self._grid_reach = None
        if len(nodes) >= GRID_MIN_NODES:
            reach = self._max_audible_range_m()
            if reach is not None:
                # Half-reach cells keep the scanned box near the disk.
                self._grid = SpatialGridIndex(
                    [node.position for node in nodes],
                    cell_size_m=reach / 2.0,
                )
                self._grid_reach = reach
        self._rebuild_audible()
        base_sampled_power = (
            type(self)._sampled_power is WirelessChannel._sampled_power
        )
        self._deterministic_power = (
            isinstance(self.fading, NoFading) and base_sampled_power
        )
        self._inline_fading = base_sampled_power
        self._inactive_nodes = sum(
            1 for node in nodes if not node.active
        )
        fusable = base_sampled_power and isinstance(
            self.fading, CorrelatedRayleighFading
        )
        self._resolve_backend(fusable)
        self._fused_fading = (
            self.fading if fusable and not self._vectorized else None
        )
        self._finalized = True

    def _rebuild_audible(self) -> None:
        """Re-derive every sender's audibility list from current positions.

        On the vectorized backend the new fan-outs take over the old
        ones' per-link fading state (see :meth:`_attach_vector_state`).
        """
        nodes = self.nodes
        grid = self._grid
        self._audible = {}
        for index, sender in enumerate(nodes):
            audible: List[Tuple[Node, float, float]] = []
            pool = (
                nodes
                if grid is None
                else [
                    nodes[j]
                    for j in grid.candidates_in_disk(index, self._grid_reach)
                ]
            )
            for receiver in pool:
                if receiver is sender:
                    continue
                mean_mw = self.mean_rx_power_mw(sender, receiver)
                cutoff = (
                    receiver.params.carrier_sense_threshold_mw
                    / self.audible_margin_linear
                )
                if mean_mw >= cutoff:
                    audible.append(
                        (receiver, mean_mw, receiver.params.rx_threshold_mw)
                    )
            self._audible[sender.node_id] = audible
        previous = self._fanout
        self._fanout = {
            sender_id: _FanOut(audible)
            for sender_id, audible in self._audible.items()
        }
        if self._vectorized:
            self._attach_vector_state(previous)
        self._connectivity_cache = None

    def note_position_change(self, node: Node) -> None:
        """O(1) hook from ``Node.set_position``: re-bucket in the grid.

        Keeps the persistent spatial index exact while a mobility tick
        batches several moves; derived radio state stays stale until the
        batch's single :meth:`invalidate_topology` call re-derives it.
        """
        if self._grid is not None:
            self._grid.update_position(
                self._node_slots[node.node_id], node.position
            )

    def invalidate_topology(self) -> None:
        """Re-derive position-dependent state after nodes moved.

        The mobility-path counterpart of ``finalize()``: recomputes the
        audibility lists (through the incrementally maintained spatial
        grid on large meshes), drops the memoized connectivity map, and
        rebuilds the vectorized backend's per-sender arrays with
        per-link fading state migrated by receiver id -- so a link that
        leaves and later re-enters audibility resumes its correlated
        fading exactly as the scalar model's never-pruned state dict
        does.  Transmissions already in flight are untouched: their
        power contributions were recorded at start time, and only
        future transmissions see the new topology.
        """
        if not self._finalized:
            raise ChannelError(
                "channel not finalized; call finalize() before "
                "invalidate_topology()"
            )
        self._rebuild_audible()

    def _max_audible_range_m(self) -> Optional[float]:
        """Worst-case audibility radius, or ``None`` if unbounded.

        Uses the loudest transmitter against the most sensitive cutoff,
        so *every* audible pair in the mesh is within the returned
        distance of each other; the grid query over this radius is a
        strict superset of each audibility list.
        """
        if not self.nodes:
            return None
        cutoff = (
            min(n.params.carrier_sense_threshold_mw for n in self.nodes)
            / self.audible_margin_linear
        )
        if cutoff <= 0.0:
            return None
        max_tx = max(n.params.tx_power_mw for n in self.nodes)
        max_gain = max(n.params.antenna_gain for n in self.nodes)
        return self.propagation.max_range_for_power(
            max_tx, cutoff, max_gain, max_gain
        )

    def _resolve_backend(self, fusable: bool) -> None:
        """Pick scalar, compiled or vectorized reception for this channel.

        Below :data:`VECTOR_MIN_NODES` nodes "auto" compiles when the
        kernel loads and the fused pass applies (``fusable``: correlated
        Rayleigh fading through the base ``_sampled_power``), else stays
        scalar.  "compiled" demands the kernel and raises with the
        reason when it cannot load; it runs any channel, since frames
        the fused pass cannot take go through the Python batch path on
        the kernel's stream.

        From :data:`VECTOR_MIN_NODES` nodes "auto" vectorizes when numpy
        imports, no subclass replaced ``_sampled_power``, and the fading
        model has a bit-identical batched sampler; anything else falls
        back to the scalar loop.  "vectorized" demands it and raises with
        the reason when impossible -- except for deterministic (NoFading)
        channels, where the sample-free scalar loop *is* the batch
        (there is nothing stochastic to vectorize) and is reported as
        resolved "scalar".

        The decision is per channel, never per sender: the kernel and
        the sampler each own a clone of the ``phy.fading`` uniform
        stream, and mixing scalar draws into the original stream would
        desynchronize the two.
        """
        requested = self.phy_backend
        wants_kernel = requested == "compiled" or (
            requested == "auto" and fusable
            and len(self.nodes) < VECTOR_MIN_NODES
        )
        if wants_kernel and self._kernel is None:
            self._use_compiled(required=requested == "compiled")
        if self._kernel is not None:
            # A channel that compiled once keeps its kernel's stream.
            self.phy_backend_resolved = "compiled"
            return
        forced = requested == "vectorized"
        if requested == "scalar" or self._deterministic_power:
            self._use_scalar()
            return
        if requested == "auto" and len(self.nodes) < VECTOR_MIN_NODES:
            self._use_scalar()
            return
        if not self._inline_fading:
            if forced:
                raise ChannelError(
                    f"phy_backend='vectorized' but {type(self).__name__} "
                    "overrides _sampled_power; the batched path cannot "
                    "replicate a custom power model bit-for-bit"
                )
            self._use_scalar()
            return
        try:
            from repro.phy import vectorized
        except ImportError:
            if forced:
                raise
            self._use_scalar()
            return
        if self._vector_sampler is None:
            sampler = vectorized.build_sampler(self.fading, self._fading_rng)
            if sampler is None:
                if forced:
                    raise ChannelError(
                        f"phy_backend='vectorized' but fading model "
                        f"{type(self.fading).__name__} has no bit-identical "
                        "batched sampler; use 'auto' or 'scalar'"
                    )
                self._use_scalar()
                return
            # The sampler clones the python stream's MT state; from here
            # on this channel must never draw from _fading_rng directly.
            self._vector_sampler = sampler
            self._np = vectorized.np
        if not self._vectorized:
            self._vectorized = True
            self._attach_vector_state({})
        self.phy_backend_resolved = "vectorized"

    def _use_scalar(self) -> None:
        self.phy_backend_resolved = "scalar"
        self._vectorized = False

    def _use_compiled(self, required: bool) -> None:
        """Hand the ``phy.fading`` stream to the compiled kernel.

        The kernel continues the stream's exact state, and the channel,
        the fading model and the simulator's registry all draw from the
        kernel's generator from here on.  If the kernel cannot load, a
        ``required`` request raises; otherwise nothing changes.
        """
        from repro.phy import kernel

        reason = backend_unavailable("compiled")
        if reason is not None:
            if required:
                raise ChannelError(f"phy_backend='compiled' but {reason}")
            return
        self._fading_rng = kernel.KernelRandom.continuing(self._fading_rng)
        self.sim.rng.replace("phy.fading", self._fading_rng)
        self._kernel = kernel.load()

    def _attach_vector_state(self, previous: Dict[int, _FanOut]) -> None:
        """Give every fan-out its batch arrays, migrating fading state.

        State flows through ``_vector_state_archive``: every slot of the
        ``previous`` fan-outs is dumped into the archive first (fresher
        slot state overwrites older archive entries), then each new slot
        loads whatever the archive holds for its receiver ids.  Links
        absent from the new audible list keep their archived state, so
        audibility churn under mobility preserves exactly the link
        memory the scalar model's never-pruned ``(sender, receiver)``
        dict would.
        """
        np = self._np
        sampler = self._vector_sampler
        archive = self._vector_state_archive
        for sender_id, old in previous.items():
            saved = archive.setdefault(sender_id, {})
            for rid, state in zip(
                old.receiver_ids, sampler.dump_state(old.slot)
            ):
                if state is not None:
                    saved[rid] = state
        for sender_id, fan in self._fanout.items():
            fan.mean_array = np.array(fan.mean_mw)
            fan.slot = sampler.new_slot(len(fan.receivers))
            saved = archive.get(sender_id)
            if saved:
                for position, rid in enumerate(fan.receiver_ids):
                    state = saved.get(rid)
                    if state is not None:
                        sampler.load_state(fan.slot, position, state)

    @property
    def transmissions_in_flight(self) -> int:
        """Frames on the air; ledgers and receptions drain when it is 0."""
        return len(self._in_flight)

    def in_flight(self) -> List[Transmission]:
        """The transmissions on the air, in start order (a copy)."""
        return list(self._in_flight)

    def note_active_change(self, active: bool) -> None:
        """O(1) hook from ``Node.set_active`` on every radio up/down flip."""
        self._inactive_nodes += -1 if active else 1

    def mean_rx_power_mw(self, sender: Node, receiver: Node) -> float:
        """Mean (un-faded) received power for the sender->receiver link.

        Goes through the propagation model's position-aware entry point
        so geometry-sensitive models (obstacle shadowing) see the actual
        endpoints; for plain models the base implementation reduces to
        the identical distance-only computation.
        """
        return self.propagation.rx_power_mw_between(
            sender.params.tx_power_mw,
            sender.position,
            receiver.position,
            sender.params.antenna_gain,
            receiver.params.antenna_gain,
        )

    def audible_neighbors(self, node_id: int) -> List[Tuple[Node, float]]:
        """(neighbor, mean power) pairs audible from ``node_id``."""
        return [
            (receiver, mean_mw)
            for receiver, mean_mw, _threshold in self._audible[node_id]
        ]

    # ------------------------------------------------------------------
    # Transmission lifecycle (called by the MAC)

    def begin_transmission(
        self,
        sender: Node,
        packet: Packet,
        dest_id: int,
        duration_s: float,
        notify_sender: bool = True,
    ) -> Optional[Transmission]:
        if not self._finalized:
            raise ChannelError("channel not finalized; call finalize() first")
        if sender.transmitting:
            if notify_sender:
                raise ChannelError(
                    f"node {sender.node_id} attempted concurrent transmissions"
                )
            # Control frame (ACK) collided with own ongoing tx: drop.
            self.counters.add("channel.ack_dropped_half_duplex")
            return None
        if not sender.active:
            # Radio is down: the frame evaporates, but the MAC must keep
            # cycling, so complete the "transmission" after the airtime.
            self.counters.add("channel.tx_dropped_node_down")
            if notify_sender:
                self.sim.schedule(
                    duration_s,
                    sender.mac.on_tx_complete,
                    priority=EventPriority.PHY,
                )
            return None
        now = self.sim.now
        end_time = now + duration_s
        tx = Transmission(sender, packet, dest_id, now, end_time,
                          notify_sender)
        kind = packet.kind
        counter_name = self._tx_counter_names.get(kind)
        if counter_name is None:
            counter_name = f"channel.tx.{kind.value}"
            self._tx_counter_names[kind] = counter_name
        self.counters.counts[counter_name] += 1.0
        self._in_flight[tx] = None
        sender.phy_begin_own_tx()
        fan = self._fanout[sender.node_id]
        targets = fan.receivers
        means = fan.mean_mw
        thresholds = fan.rx_thr
        sense_thresholds = fan.cs_thr
        receiver_ids = fan.receiver_ids
        sel = None
        if self._inactive_nodes and targets:
            # Down radios neither hear the frame nor draw its fading.
            sel = [k for k, receiver in enumerate(targets) if receiver.active]
            if len(sel) == len(targets):
                sel = None
            else:
                targets = [targets[k] for k in sel]
                means = [means[k] for k in sel]
                thresholds = [thresholds[k] for k in sel]
                sense_thresholds = [sense_thresholds[k] for k in sel]
                receiver_ids = [receiver_ids[k] for k in sel]
        row = None
        if self._fused_fading is not None and sel is None and targets:
            row = self._fused_fading.uniform_row(
                sender.node_id, receiver_ids, now, self._fading_rng
            )
        if row is not None:
            if self._kernel is not None:
                self._kernel.frame_start(
                    self._fading_rng.stream, tx, targets, means, thresholds,
                    sense_thresholds, *row, Reception,
                )
            else:
                self._fused_start(tx, targets, means, thresholds,
                                  sense_thresholds, row)
        else:
            self._batched_start(tx, fan, sel, targets, means, thresholds,
                                sense_thresholds, receiver_ids)
        self.sim.schedule(
            duration_s, self._end_transmission, tx, priority=EventPriority.PHY
        )
        return tx

    # Both frame-start passes below do each receiver's bookkeeping for
    # an arriving frame, inlined: add its power, raise the peak
    # interference of every pending reception (the total minus that
    # reception's own signal), flip carrier sense idle -> busy (power
    # only rises here), and -- when the power is decodable and the
    # receiver is not transmitting -- start a pending reception whose
    # initial interference is every other audible frame.

    def _fused_start(
        self,
        tx: Transmission,
        targets: List[Node],
        means: List[float],
        thresholds: List[float],
        sense_thresholds: List[float],
        row: Tuple[List[list], float, float],
    ) -> None:
        """The frame start with each link's AR(1) step drawn in the pass.

        ``row`` is ``CorrelatedRayleighFading.uniform_row``'s: every
        link shares one ``rho``/innovation, so each receiver costs two
        ``random()`` draws and the batch loop's exact update.  Nothing
        in the bookkeeping draws from ``phy.fading`` (a MAC's backoff
        draws from ``mac.backoff``), so interleaving the draws with it
        consumes the stream exactly as one batch before the pass would.
        """
        states, rho, innovation = row
        random_ = self._fading_rng.random
        twopi = TWOPI
        log = math.log
        sqrt = math.sqrt
        cos = math.cos
        sin = math.sin
        now = tx.start_time
        end_time = tx.end_time
        silenced = None
        powers_append = tx.powers.append
        decoding_append = tx.decoding.append
        for receiver, mean_mw, threshold, sense_mw, state in zip(
            targets, means, thresholds, sense_thresholds, states
        ):
            x2pi = random_() * twopi
            g2rad = sqrt(-2.0 * log(1.0 - random_()))
            real = rho * state[1] + (0.0 + (cos(x2pi) * g2rad) * innovation)
            imag = rho * state[2] + (0.0 + (sin(x2pi) * g2rad) * innovation)
            state[0] = now
            state[1] = real
            state[2] = imag
            power_mw = mean_mw * (real * real + imag * imag)
            if power_mw <= 0.0:
                # Not touched, as in the batched pass's filter.
                if silenced is None:
                    silenced = []
                silenced.append(receiver)
                continue
            powers_append(power_mw)
            total = receiver.current_power_mw + power_mw
            receiver.current_power_mw = total
            receiver.on_air_count += 1
            pending = receiver.pending_receptions
            if pending:
                for reception in pending.values():
                    level = total - reception.signal_mw
                    if level > reception.peak_interference_mw:
                        reception.peak_interference_mw = level
            if not receiver._last_busy and total >= sense_mw:
                receiver._last_busy = True
                mac = receiver.mac
                if mac.awaited_sense is True:
                    mac.on_medium_state(True)
            if power_mw >= threshold and not receiver.transmitting:
                reception = Reception(
                    tx, receiver.node_id, power_mw, now, end_time
                )
                pending[tx] = reception
                level = total - power_mw
                if level > 0.0:
                    reception.peak_interference_mw = level
                decoding_append(receiver)
        tx.touched = (
            list(targets) if silenced is None
            else [receiver for receiver in targets if receiver not in silenced]
        )

    def _batched_start(
        self,
        tx: Transmission,
        fan: _FanOut,
        sel: Optional[List[int]],
        targets: List[Node],
        means: List[float],
        thresholds: List[float],
        sense_thresholds: List[float],
        receiver_ids: List[int],
    ) -> None:
        """The frame start with the fading drawn in one call first."""
        now = tx.start_time
        end_time = tx.end_time
        if not targets or self._deterministic_power:
            powers = means
        elif self._vectorized:
            # tolist() hands back plain Python floats, so power ledgers
            # and telemetry never see numpy scalars.
            gains = self._vector_sampler.gains(
                fan.slot, len(fan.receivers), sel, now
            )
            if sel is None:
                powers = (fan.mean_array * gains).tolist()
            else:
                index = self._np.asarray(sel, dtype=self._np.intp)
                powers = (fan.mean_array[index] * gains).tolist()
        elif self._inline_fading:
            gains = self.fading.sample_link_gains(
                tx.sender_id, receiver_ids, now, self._fading_rng
            )
            powers = [mean * gain for mean, gain in zip(means, gains)]
        else:
            powers = [
                self._sampled_power(tx.sender, receiver, mean)
                for receiver, mean in zip(targets, means)
            ]
        if powers and min(powers) <= 0.0:
            # Only a custom power model silences a link outright.
            keep = [k for k, power_mw in enumerate(powers) if power_mw > 0.0]
            targets = [targets[k] for k in keep]
            powers = [powers[k] for k in keep]
            thresholds = [thresholds[k] for k in keep]
            sense_thresholds = [sense_thresholds[k] for k in keep]
        tx.touched = list(targets)
        tx.powers = list(powers)
        decoding_append = tx.decoding.append
        for receiver, power_mw, threshold, sense_mw in zip(
            targets, powers, thresholds, sense_thresholds
        ):
            total = receiver.current_power_mw + power_mw
            receiver.current_power_mw = total
            receiver.on_air_count += 1
            pending = receiver.pending_receptions
            if pending:
                for reception in pending.values():
                    level = total - reception.signal_mw
                    if level > reception.peak_interference_mw:
                        reception.peak_interference_mw = level
            if not receiver._last_busy and total >= sense_mw:
                receiver._last_busy = True
                mac = receiver.mac
                if mac.awaited_sense is True:
                    mac.on_medium_state(True)
            if power_mw >= threshold and not receiver.transmitting:
                reception = Reception(
                    tx, receiver.node_id, power_mw, now, end_time
                )
                pending[tx] = reception
                level = total - power_mw
                if level > 0.0:
                    reception.peak_interference_mw = level
                decoding_append(receiver)

    def _sampled_power(
        self, sender: Node, receiver: Node, mean_mw: float
    ) -> float:
        """Fading-sampled instantaneous power for this packet on this link."""
        gain = self.fading.sample_link_gain(
            (sender.node_id, receiver.node_id), self.sim.now, self._fading_rng
        )
        return mean_mw * gain

    def _end_transmission(self, tx: Transmission) -> None:
        del self._in_flight[tx]
        tx.sender.phy_end_own_tx()
        # Every power withdrawal (and the carrier-sense flips it causes)
        # precedes every decision, so MAC backoffs are drawn before any
        # delivery's upper-layer sends.  Power only falls here, so the
        # only possible flip is busy -> idle.
        for receiver, power_mw in zip(tx.touched, tx.powers):
            count = receiver.on_air_count - 1
            receiver.on_air_count = count
            if count:
                total = receiver.current_power_mw - power_mw
                if total < 0.0:  # guard against float drift
                    total = 0.0
            else:
                total = 0.0
            receiver.current_power_mw = total
            if receiver._last_busy and not receiver.transmitting and (
                total < receiver.params.carrier_sense_threshold_mw
            ):
                receiver._last_busy = False
                mac = receiver.mac
                if mac.awaited_sense is False:
                    mac.on_medium_state(False)
        packet = tx.packet
        sender_id = tx.sender_id
        dest_id = tx.dest_id
        for receiver in tx.decoding:
            reception = receiver.pending_receptions.pop(tx)
            signal_mw = reception.signal_mw
            tally = receiver.counters.counts
            if signal_mw <= 0.0:
                tally["phy.rx_failed_half_duplex"] += 1.0
            elif receiver.reception_model.decide(reception):
                tally["phy.rx_ok"] += 1.0
                receiver.deliver(packet, sender_id, dest_id, signal_mw)
            elif signal_mw < receiver.params.rx_threshold_mw:
                tally["phy.rx_failed_weak"] += 1.0
            else:
                tally["phy.rx_failed_collision"] += 1.0
        if tx.notify_sender:
            tx.sender.mac.on_tx_complete()

    # ------------------------------------------------------------------
    # Diagnostics

    def telemetry_snapshot(self) -> Dict[str, float]:
        """Cumulative channel counters (tx per kind, drops) by name.

        Pull-based accessor for the telemetry sampler; the transmission
        path only touches its existing ``CounterSet``.
        """
        return self.counters.as_dict()

    def connectivity_map(self) -> Dict[int, List[int]]:
        """node -> neighbors whose mean power clears the receive threshold.

        Memoized after :meth:`finalize`: while the topology holds, the
        O(n^2) scan happens once no matter how often benches poll it.
        Invalidation rule: re-running ``finalize()`` or calling
        :meth:`invalidate_topology` after position changes (the two
        legal topology changes) clears the memo; callers must treat the
        returned mapping as read-only.
        """
        if self._connectivity_cache is None:
            self._connectivity_cache = {
                sender.node_id: [
                    receiver.node_id
                    for receiver, mean_mw, threshold
                    in self._audible[sender.node_id]
                    if mean_mw >= threshold
                ]
                for sender in self.nodes
            }
        return self._connectivity_cache
