//! The round-driven simulation engine.
//!
//! [`Simulation`] owns a set of actors (one per virtual node), their
//! channels, and the clock.  One call to [`Simulation::run_round`] executes
//! one round of the paper's model:
//!
//! 1. every node processes the messages that became deliverable this round
//!    (in the synchronous model: everything sent in the previous round),
//! 2. every *active* node then executes its `TIMEOUT` action — unless the
//!    actor declares the timeout a no-op via [`Actor::wants_timeout`], in
//!    which case the visit is skipped entirely,
//! 3. all messages produced in the round are scheduled for later rounds
//!    according to the configured [`crate::DeliveryModel`] — except, in the
//!    synchronous model, a message to a node the sender declares co-located
//!    ([`Actor::co_located`]): it goes straight onto the destination's
//!    pending queue, and the destination takes it in its visit of this round
//!    (if the scan has not reached it yet) or is visited again after the
//!    scan.  Those extra visits are ordinary visits, made in send order
//!    until no same-round message is left; a round that makes more than 64
//!    of them per lane node panics as a delivery loop.
//!
//! Determinism: for a fixed seed, configuration and sequence of driver calls,
//! a run is bit-for-bit reproducible.  Nodes are processed in index order
//! (optionally in a seeded shuffled order), and ties between messages are
//! broken by a per-lane sequence number.
//!
//! # Sparse ids and egress
//!
//! A simulation may host any subset of a larger id space:
//! [`Simulation::add_node_at`] registers a node under a caller-chosen id, and
//! the ids in between are gaps that [`Simulation::len`],
//! [`Simulation::iter`] and the per-node accessors skip.  A message to an id
//! no lane hosts is not an error: it goes to an egress buffer that the driver
//! empties with [`Simulation::drain_egress`], and replies come back through
//! [`Simulation::inject`].  The `skueue-node` daemon hosts its share of a
//! cluster this way; the Skueue cluster hosts every id it addresses and
//! treats a non-empty egress as a bug.
//!
//! # Lanes
//!
//! Nodes are partitioned into **lanes** (one by default).  A lane owns its
//! node slots, its slice of the delivery wheel, an independent RNG stream
//! and its own scratch buffers, so one round decomposes into independent
//! per-lane rounds recombined in fixed lane order:
//!
//! * the per-round wake list is merged in ascending node-id order (the
//!   classic visit order) — or in lane-concatenation order under shuffle,
//! * per-lane metrics and trace buffers are folded into the global views,
//! * the rare message that crosses a lane boundary is detoured through a
//!   per-lane outbox and routed by the driver after all lanes finish, drawing
//!   its delay from the *destination* lane's stream in fixed lane order.
//!
//! The Skueue cluster maps every anchor shard to its own lane; shard
//! independence (all protocol traffic is intra-shard) means the cross-lane
//! detour never fires there.  Lanes make the round loop parallelisable: with
//! [`Simulation::enable_parallel`] each lane's round executes on a worker
//! thread of a persistent [`crate::exec::WorkerPool`].  The driver sends lane
//! `l` to worker `l % threads` over a `std::sync::mpsc` channel and takes the
//! lanes back in lane order; waiting for the last one is the deterministic
//! round barrier.  Because a lane's round depends only on lane-owned state
//! and merges happen in lane order, the parallel backend is **byte-identical**
//! to the single-threaded one for every seed and any thread count.
//!
//! # Hot-loop design
//!
//! The round loop is allocation-free in steady state:
//!
//! * In-flight messages live in a round-bucketed **delivery wheel**
//!   (`BTreeMap<Round, Vec<Envelope>>` keyed by `deliver_at`).  A round only
//!   touches the envelopes that become deliverable in it — messages with a
//!   far-future `deliver_at` are never rescanned, unlike the flat per-node
//!   inbox this replaced.  Emptied bucket vectors are parked on a spare list
//!   and reused when a new delivery round opens.
//! * A per-round **wake list** visits only nodes that have deliverable
//!   messages or are active (and therefore receive a `TIMEOUT`); deactivated
//!   nodes without deliveries cost nothing.
//! * Per-node pending queues, the wake list, the same-round queue and the
//!   actor outbox are **scratch buffers** owned by the lane and reused
//!   across rounds.
//! * No per-round sorting: a bucket is filled in send order, so envelopes
//!   arrive at a node already in `(deliver_at, seq)` order.  (The merged
//!   wake list does sort ids in multi-lane runs — over the handful of woken
//!   nodes, not the message volume.)

use crate::actor::{Actor, Context};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::exec::{thread_token, RoundTask, WorkerPool};
use crate::ids::NodeId;
use crate::message::Envelope;
use crate::metrics::{Histogram, SimMetrics};
use crate::rng::{splitmix64, SimRng};
use crate::trace::{Trace, TraceEvent};
use crate::transport::SimTransport;
use crate::Round;
use std::collections::VecDeque;
use std::time::Instant;

/// Marker in a lane's global→local slot map for "not one of my nodes".
const NOT_LOCAL: u32 = u32::MAX;

/// Same-round visits one round may make per lane node before the lane
/// declares a delivery loop and panics (see [`Actor::co_located`]).
const SAME_ROUND_VISITS_PER_NODE: u64 = 64;

/// Marker in the simulation's id→`(lane, slot)` map for an id no lane hosts
/// (a gap left by [`Simulation::add_node_at`]).
const NOT_HOSTED: (u32, u32) = (u32::MAX, u32::MAX);

/// Outcome of [`Simulation::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The predicate became true after the contained number of rounds.
    Satisfied(Round),
    /// The simulation became quiescent (no messages in flight) without the
    /// predicate becoming true.
    Quiescent(Round),
}

struct NodeSlot<A: Actor> {
    actor: A,
    /// Whether the node takes part in timeouts. Channels remain usable even
    /// for deactivated nodes — the paper's channels never lose messages.
    active: bool,
    /// Messages deliverable in the round currently executing, already in
    /// `(deliver_at, seq)` order.  Drained every round; capacity is reused.
    pending: Vec<Envelope<A::Msg>>,
}

/// Cumulative per-lane counters, folded into the global [`SimMetrics`] by
/// the driver's round merge.
#[derive(Debug, Default)]
struct LaneMetrics {
    messages_sent: u64,
    messages_delivered: u64,
    timeouts_fired: u64,
    nodes_visited: u64,
    delays: Histogram,
    busy_ns: u64,
    barrier_wait_ns: u64,
    thread_token: u64,
}

/// One lane: a partition of the simulation's nodes together with everything
/// needed to run their share of a round without touching other lanes.
struct Lane<A: Actor> {
    // Per-lane copies of the configuration bits the round loop needs (the
    // lane must be shippable to a worker thread without borrowing the
    // simulation).
    shuffle: bool,
    record_trace: bool,
    /// Whether messages to co-located nodes are handled in their send round
    /// (the synchronous model).
    same_round: bool,
    /// The lane's message fabric: delivery wheel, delay RNG and message
    /// sequence (see [`crate::transport`]).  The lane calls its inherent
    /// methods directly — static dispatch, no hot-loop indirection.  Lane
    /// 0's RNG stream is seeded exactly like the pre-lane global stream, so
    /// single-lane runs are bit-identical to the historical scheduler.
    transport: SimTransport<A::Msg>,
    nodes: Vec<NodeSlot<A>>,
    /// Lane slot → global node id.
    global_ids: Vec<u64>,
    /// Global node id → lane slot (`NOT_LOCAL` for other lanes' nodes; only
    /// grown for ids at or below this lane's own highest node).
    local_slot: Vec<u32>,
    /// Bit-packed per-slot wake flags: bit `i` is set iff slot `i` is active
    /// *and* wants its timeout (see [`Actor::wants_timeout`]).  Re-derived
    /// after every visit.
    timeout_flags: Vec<u64>,
    /// Bit-packed per-round delivery marks: bit `i` is set while slot `i`
    /// has deliverable messages this round.  Cleared at every round start.
    woken_bits: Vec<u64>,
    /// The lane slots visited by the current round, in visit order; a slot
    /// visited again for same-round messages appears again.
    wake_order: Vec<usize>,
    /// Slots handed a same-round message, in send order; popped after the
    /// round's wake-list scan until empty.
    same_round_queue: VecDeque<usize>,
    /// Visits the current round made from `same_round_queue`.
    same_round_visits: u64,
    /// Messages the current round delivered in their send round.
    same_round_delivered: usize,
    /// Scratch: outbox buffer lent to each actor invocation.
    outbox: Vec<(NodeId, A::Msg)>,
    /// Messages addressed outside this lane, handed to the driver for
    /// routing after the round barrier.
    xlane: Vec<(NodeId, NodeId, A::Msg)>,
    /// Trace events recorded by this lane's round, flushed into the global
    /// trace in lane order by the round merge.
    trace_buf: Vec<TraceEvent>,
    metrics: LaneMetrics,
    /// Messages delivered by the most recent round (merge input).
    delta_delivered: usize,
    /// Messages sent during the most recent round (merge input; excludes
    /// driver-side injections, which happen between rounds).
    delta_sent: u64,
    /// Wall time of the most recent round (merge input for barrier-wait
    /// accounting).
    delta_busy_ns: u64,
}

impl<A: Actor> Lane<A> {
    fn new(config: &SimConfig, lane: usize) -> Self {
        let seed = if lane == 0 {
            config.seed
        } else {
            // Derived, well-separated stream for every additional lane.
            let mut s = config
                .seed
                .wrapping_add((lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            splitmix64(&mut s)
        };
        Lane {
            shuffle: config.shuffle_node_order,
            record_trace: config.record_trace,
            same_round: config.delivery.is_synchronous(),
            transport: SimTransport::new(config.delivery, SimRng::new(seed)),
            nodes: Vec::new(),
            global_ids: Vec::new(),
            local_slot: Vec::new(),
            timeout_flags: Vec::new(),
            woken_bits: Vec::new(),
            wake_order: Vec::new(),
            same_round_queue: VecDeque::new(),
            same_round_visits: 0,
            same_round_delivered: 0,
            outbox: Vec::new(),
            xlane: Vec::new(),
            trace_buf: Vec::new(),
            metrics: LaneMetrics::default(),
            delta_delivered: 0,
            delta_sent: 0,
            delta_busy_ns: 0,
        }
    }

    /// Pre-sizes the lane for `nodes` more nodes (capacity hint only).
    /// Node slots are large (the actor is stored inline), so growing the
    /// slot vector by doubling costs a multi-megabyte memcpy per step once
    /// several lanes interleave their allocations; a bulk build that knows
    /// its lane sizes up front reserves once and never reallocates.
    fn reserve_nodes(&mut self, nodes: usize) {
        self.nodes.reserve(nodes);
        let slots = self.nodes.len() + nodes;
        self.global_ids.reserve(nodes);
        self.timeout_flags.reserve(slots.div_ceil(64));
        self.woken_bits.reserve(slots.div_ceil(64));
    }

    /// Registers a node with global id `global` and returns its lane slot.
    fn add_node(&mut self, global: u64, actor: A) -> usize {
        let slot = self.nodes.len();
        if slot / 64 >= self.timeout_flags.len() {
            self.timeout_flags.push(0);
            self.woken_bits.push(0);
        }
        if actor.wants_timeout() {
            self.timeout_flags[slot / 64] |= 1u64 << (slot % 64);
        }
        self.nodes.push(NodeSlot {
            actor,
            active: true,
            pending: Vec::new(),
        });
        self.global_ids.push(global);
        if self.local_slot.len() <= global as usize {
            self.local_slot.resize(global as usize + 1, NOT_LOCAL);
        }
        self.local_slot[global as usize] = slot as u32;
        slot
    }

    /// The lane slot of a global node id, if the node lives in this lane.
    #[inline]
    fn slot_of(&self, id: NodeId) -> Option<usize> {
        match self.local_slot.get(id.index()) {
            Some(&slot) if slot != NOT_LOCAL => Some(slot as usize),
            _ => None,
        }
    }

    /// Re-derives slot `slot`'s wake-flag bit from its current state.
    fn refresh_flag(&mut self, slot: usize) {
        let node = &self.nodes[slot];
        let bit = 1u64 << (slot % 64);
        if node.active && node.actor.wants_timeout() {
            self.timeout_flags[slot / 64] |= bit;
        } else {
            self.timeout_flags[slot / 64] &= !bit;
        }
    }

    /// Posts a message sent by one of this lane's actors.  Intra-lane
    /// destinations are scheduled directly; anything else is detoured to the
    /// driver's cross-lane router.
    fn post(&mut self, from: NodeId, to: NodeId, msg: A::Msg) {
        match self.slot_of(to) {
            Some(_) => {
                self.post_local(from, to, msg);
            }
            None => self.xlane.push((from, to, msg)),
        }
    }

    /// Schedules a message for an intra-lane destination and returns its
    /// delivery round.
    fn post_local(&mut self, from: NodeId, to: NodeId, msg: A::Msg) -> Round {
        let sent_at = self.transport.round();
        let deliver_at = self.transport.dispatch(from, to, msg);
        self.record_send(from, to, sent_at, deliver_at);
        deliver_at
    }

    /// Counts a posted message and traces its `Sent` event.
    fn record_send(&mut self, from: NodeId, to: NodeId, round: Round, deliver_at: Round) {
        self.metrics.messages_sent += 1;
        self.metrics.delays.record(deliver_at - round);
        if self.record_trace {
            self.trace_buf.push(TraceEvent::Sent {
                from,
                to,
                round,
                deliver_at,
            });
        }
    }

    /// Hands a message to a co-located node for handling in the current
    /// round: it skips the transport, goes straight onto the destination's
    /// pending queue, and the destination joins the same-round queue.
    fn post_same_round(&mut self, from: NodeId, to: NodeId, msg: A::Msg) {
        let Some(slot) = self.slot_of(to) else {
            panic!("node {from:?} declares node {to:?} co-located, but {to:?} is not hosted in its lane");
        };
        let round = self.transport.round();
        self.record_send(from, to, round, round);
        self.same_round_delivered += 1;
        let seq = self.transport.take_seq();
        self.nodes[slot].pending.push(Envelope {
            from,
            to,
            sent_at: round,
            deliver_at: round,
            seq,
            payload: msg,
        });
        self.same_round_queue.push_back(slot);
    }

    /// Delivers a slot's pending messages, fires its timeout if it is
    /// active, and posts everything it sent.  The pending queue and the
    /// outbox scratch are moved out and back so their capacity is reused;
    /// the moves are skipped entirely on the (hot) quiet path.
    #[inline]
    fn visit_node(&mut self, slot: usize, round: Round) {
        let self_id = NodeId(self.global_ids[slot]);
        // Equivalent to handing the context `rng.fork()`, but the
        // xoshiro state is only set up if the actor actually draws bits.
        let ctx_seed = self.transport.rng_mut().next_u64();
        let mut ctx =
            Context::with_outbox(self_id, round, ctx_seed, std::mem::take(&mut self.outbox));
        if !self.nodes[slot].pending.is_empty() {
            let mut pending = std::mem::take(&mut self.nodes[slot].pending);
            let node = &mut self.nodes[slot];
            for env in pending.drain(..) {
                if self.record_trace {
                    self.trace_buf.push(TraceEvent::Delivered {
                        from: env.from,
                        to: self_id,
                        round,
                    });
                }
                node.actor.on_message(env.from, env.payload, &mut ctx);
            }
            self.nodes[slot].pending = pending;
        }
        let node = &mut self.nodes[slot];
        if node.active {
            node.actor.on_timeout(&mut ctx);
            self.metrics.timeouts_fired += 1;
            if self.record_trace {
                self.trace_buf.push(TraceEvent::Timeout {
                    node: self_id,
                    round,
                });
            }
        }
        let mut outbox = ctx.into_outbox();
        if !outbox.is_empty() {
            for (to, msg) in outbox.drain(..) {
                if self.same_round && self.nodes[slot].actor.co_located(to) {
                    self.post_same_round(self_id, to, msg);
                } else {
                    self.post(self_id, to, msg);
                }
            }
        }
        self.outbox = outbox;
    }

    /// Visits, in send order, every slot a co-located sender handed a
    /// message this round, until no such message is left.  A slot whose
    /// queue a visit has drained since is skipped.
    ///
    /// # Panics
    ///
    /// Panics once the round has made more than
    /// [`SAME_ROUND_VISITS_PER_NODE`] same-round visits per lane node: the
    /// co-located actors keep messaging each other and the round would never
    /// end.
    fn drain_same_round(&mut self, round: Round) {
        let limit = SAME_ROUND_VISITS_PER_NODE * self.nodes.len() as u64;
        while let Some(slot) = self.same_round_queue.pop_front() {
            if self.nodes[slot].pending.is_empty() {
                continue;
            }
            self.same_round_visits += 1;
            assert!(
                self.same_round_visits <= limit,
                "same-round delivery loop: round {round} made more than {limit} same-round \
                 visits over {} nodes (last: node {})",
                self.nodes.len(),
                self.global_ids[slot]
            );
            self.visit_node(slot, round);
            self.refresh_flag(slot);
            self.wake_order.push(slot);
        }
    }

    /// Executes this lane's share of one round.
    fn run_round(&mut self, round: Round) {
        let started = Instant::now();
        let sends_before = self.metrics.messages_sent;
        self.same_round_visits = 0;
        self.same_round_delivered = 0;

        // Phase 1: scatter this round's due envelopes into the per-slot
        // pending queues, marking each destination as woken.  The transport
        // hands them over in `(deliver_at, seq)` order, so each pending
        // queue ends up ordered without sorting.
        for word in &mut self.woken_bits {
            *word = 0;
        }
        let Lane {
            transport,
            nodes,
            local_slot,
            woken_bits,
            ..
        } = self;
        let delivered_total = transport.take_due(round, |env| {
            let slot = local_slot[env.to.index()] as usize;
            woken_bits[slot / 64] |= 1u64 << (slot % 64);
            nodes[slot].pending.push(env);
        });

        // Phases 2+3: visit exactly the woken slots — those whose wake-flag
        // bit is set (active + timeout interest) or that received a message
        // this round.  The scan is over the OR of the two bit words, so 64
        // quiescent nodes cost a single word-load; the shuffle mode
        // materialises the wake list before visiting.  A slot's flag is
        // re-derived after its visit, so timeout interest follows the
        // actor's state from round to round.
        self.wake_order.clear();
        let words = self.timeout_flags.len();
        if !self.shuffle {
            for wi in 0..words {
                let mut word = self.timeout_flags[wi] | self.woken_bits[wi];
                while word != 0 {
                    let slot = wi * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    self.visit_node(slot, round);
                    self.refresh_flag(slot);
                    self.wake_order.push(slot);
                }
            }
        } else {
            for wi in 0..words {
                let mut word = self.timeout_flags[wi] | self.woken_bits[wi];
                while word != 0 {
                    let slot = wi * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    self.wake_order.push(slot);
                }
            }
            let mut wake = std::mem::take(&mut self.wake_order);
            self.transport.rng_mut().shuffle(&mut wake);
            for &slot in &wake {
                self.visit_node(slot, round);
                self.refresh_flag(slot);
            }
            self.wake_order = wake;
        }
        self.drain_same_round(round);
        let delivered_total = delivered_total + self.same_round_delivered;
        self.metrics.nodes_visited += self.wake_order.len() as u64;
        self.metrics.messages_delivered += delivered_total as u64;
        self.delta_delivered = delivered_total;
        self.delta_sent = self.metrics.messages_sent - sends_before;
        self.delta_busy_ns = started.elapsed().as_nanos() as u64;
        self.metrics.busy_ns += self.delta_busy_ns;
        self.metrics.thread_token = thread_token();
    }
}

impl<A> RoundTask for Lane<A>
where
    A: Actor + Send + 'static,
    A::Msg: Send,
{
    fn run_task(&mut self, round: u64) {
        self.run_round(round);
    }
}

/// A deterministic discrete-round message-passing simulation.
pub struct Simulation<A: Actor> {
    config: SimConfig,
    /// The lanes.  `Option` because the parallel backend temporarily moves
    /// lane boxes to worker threads inside [`Self::run_round`]; between
    /// driver calls every slot is `Some`.
    lanes: Vec<Option<Box<Lane<A>>>>,
    /// Global node id → `(lane, slot)`, [`NOT_HOSTED`] for gaps.
    node_loc: Vec<(u32, u32)>,
    round: Round,
    metrics: SimMetrics,
    trace: Option<Trace>,
    /// The global node ids visited by the most recent round (merged across
    /// lanes; see [`Self::visited_last_round`]).
    merged_wake: Vec<usize>,
    /// Scratch bitset over global ids for deduplicating `merged_wake`.
    wake_seen: Vec<u64>,
    /// Scratch for the cross-lane router.
    xroute: Vec<(NodeId, NodeId, A::Msg)>,
    /// Messages addressed to ids this simulation does not host, waiting for
    /// the driver's [`Self::drain_egress`].
    egress: Vec<(NodeId, NodeId, A::Msg)>,
    /// Worker pool of the parallel backend (`None` = single-threaded).
    pool: Option<WorkerPool<Lane<A>>>,
}

impl<A: Actor> Simulation<A> {
    /// Creates an empty simulation from a configuration (one lane; see
    /// [`Self::configure_lanes`]).
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        let trace = if config.record_trace {
            Some(Trace::with_capacity(1 << 16))
        } else {
            None
        };
        let lane = Box::new(Lane::new(&config, 0));
        Ok(Simulation {
            config,
            lanes: vec![Some(lane)],
            node_loc: Vec::new(),
            round: 0,
            metrics: SimMetrics::new(),
            trace,
            merged_wake: Vec::new(),
            wake_seen: Vec::new(),
            xroute: Vec::new(),
            egress: Vec::new(),
            pool: None,
        })
    }

    /// Convenience constructor for the synchronous model.
    pub fn synchronous(seed: u64) -> Self {
        Simulation::new(SimConfig::synchronous(seed)).expect("synchronous config is always valid")
    }

    /// Immutable access to a lane (every slot is `Some` between rounds).
    #[inline]
    fn lane(&self, lane: usize) -> &Lane<A> {
        self.lanes[lane].as_ref().expect("lane present")
    }

    /// Mutable access to a lane.
    #[inline]
    fn lane_mut(&mut self, lane: usize) -> &mut Lane<A> {
        self.lanes[lane].as_mut().expect("lane present")
    }

    /// Repartitions the (still empty) simulation into `count` lanes.  Lane 0
    /// keeps the historical RNG stream; every further lane gets its own
    /// derived stream.  Must be called before any node is added.
    pub fn configure_lanes(&mut self, count: usize) -> Result<(), SimError> {
        if count == 0 {
            return Err(SimError::InvalidConfig(
                "a simulation needs at least one lane".into(),
            ));
        }
        if !self.node_loc.is_empty() {
            return Err(SimError::InvalidConfig(
                "lanes must be configured before nodes are added".into(),
            ));
        }
        self.lanes = (0..count)
            .map(|l| Some(Box::new(Lane::new(&self.config, l))))
            .collect();
        self.pool = None;
        Ok(())
    }

    /// Number of lanes the simulation is partitioned into.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// `(lane, slot)` of a hosted node.
    #[inline]
    fn loc(&self, id: NodeId) -> Option<(usize, usize)> {
        let &(lane, slot) = self.node_loc.get(id.index())?;
        ((lane, slot) != NOT_HOSTED).then_some((lane as usize, slot as usize))
    }

    /// The lane a node belongs to.
    pub fn lane_of(&self, id: NodeId) -> Option<usize> {
        self.loc(id).map(|(lane, _)| lane)
    }

    /// Adds a node to lane 0 and returns its id. Ids are assigned in
    /// insertion order (one past the highest id so far), independent of the
    /// lane.
    pub fn add_node(&mut self, actor: A) -> NodeId {
        self.add_node_in_lane(0, actor)
    }

    /// Pre-sizes a lane for `nodes` more nodes (a capacity hint, not a
    /// limit).  Bulk builders that know the final lane population call this
    /// once per lane before the `add_node_in_lane` loop; actor slots are
    /// large, so skipping the doubling reallocations saves a multi-megabyte
    /// memcpy per growth step on big clusters.
    pub fn reserve_nodes_in_lane(&mut self, lane: usize, nodes: usize) {
        assert!(
            lane < self.lanes.len(),
            "lane {lane} out of range ({} lanes)",
            self.lanes.len()
        );
        self.node_loc.reserve(nodes);
        self.lane_mut(lane).reserve_nodes(nodes);
    }

    /// Adds a node to the given lane under the next dense id (one past the
    /// highest id registered so far) and returns that id.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range (driver bug — the lane layout is
    /// fixed at configuration time).
    pub fn add_node_in_lane(&mut self, lane: usize, actor: A) -> NodeId {
        let id = NodeId(self.node_loc.len() as u64);
        self.add_node_at(lane, id, actor);
        id
    }

    /// Adds a node to the given lane under a caller-chosen id, which need
    /// not be dense (see "Sparse ids and egress" in the module docs).
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range or `id` is already taken (driver
    /// bugs).
    pub fn add_node_at(&mut self, lane: usize, id: NodeId, actor: A) {
        assert!(
            lane < self.lanes.len(),
            "lane {lane} out of range ({} lanes)",
            self.lanes.len()
        );
        assert!(self.loc(id).is_none(), "node id {id:?} is already taken");
        if self.node_loc.len() <= id.index() {
            self.node_loc.resize(id.index() + 1, NOT_HOSTED);
        }
        let slot = self.lane_mut(lane).add_node(id.0, actor);
        self.node_loc[id.index()] = (lane as u32, slot as u32);
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent::NodeAdded {
                node: id,
                round: self.round,
            });
        }
    }

    /// Number of hosted nodes (active or not).
    pub fn len(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.as_ref().expect("lane present").nodes.len())
            .sum()
    }

    /// True if no nodes are hosted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current round (0 before the first call to [`Self::run_round`]).
    pub fn round(&self) -> Round {
        self.round
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.as_ref().expect("lane present").transport.in_flight())
            .sum()
    }

    /// True when no messages are in flight.
    pub fn is_quiescent(&self) -> bool {
        self.in_flight() == 0
    }

    /// Switches the round loop to the parallel backend with (up to)
    /// `threads` worker threads — values `<= 1` (or a single lane) select
    /// the single-threaded backend.  May be toggled between rounds; results
    /// are byte-identical either way.
    pub fn enable_parallel(&mut self, threads: usize)
    where
        A: Send + 'static,
        A::Msg: Send,
    {
        let workers = threads.min(self.lanes.len());
        if workers <= 1 || self.lanes.len() <= 1 {
            self.pool = None;
            return;
        }
        self.pool = Some(WorkerPool::new(workers));
    }

    /// Number of worker threads of the parallel backend (1 when the
    /// single-threaded backend is active).
    pub fn parallel_threads(&self) -> usize {
        self.pool.as_ref().map(|p| p.worker_count()).unwrap_or(1)
    }

    /// Immutable access to an actor.
    pub fn node(&self, id: NodeId) -> Option<&A> {
        let (lane, slot) = self.loc(id)?;
        Some(&self.lane(lane).nodes[slot].actor)
    }

    /// Mutable access to an actor. The driver (e.g. the Skueue cluster API)
    /// uses this to perform *local* operations such as generating a queue
    /// request at a node — those are not messages in the paper's model.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut A> {
        let (lane, slot) = self.loc(id)?;
        Some(&mut self.lane_mut(lane).nodes[slot].actor)
    }

    /// Iterates over the hosted `(id, actor)` pairs in global id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &A)> {
        (0..self.node_loc.len() as u64).filter_map(|i| Some((NodeId(i), self.node(NodeId(i))?)))
    }

    /// Iterates mutably over `(id, actor)` pairs.  Multi-lane simulations
    /// iterate lane-major (lane order, then slot order); with one lane this
    /// is exactly global id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut A)> {
        self.lanes.iter_mut().flat_map(|slot| {
            let lane = slot.as_mut().expect("lane present");
            lane.nodes
                .iter_mut()
                .zip(lane.global_ids.iter())
                .map(|(node, &gid)| (NodeId(gid), &mut node.actor))
        })
    }

    /// Marks a node as inactive: it stops receiving timeouts but its channel
    /// keeps accepting and delivering messages (reliable channels).
    pub fn deactivate(&mut self, id: NodeId) -> Result<(), SimError> {
        let round = self.round;
        let (lane, slot) = self.loc(id).ok_or(SimError::UnknownNode(id))?;
        let lane = self.lane_mut(lane);
        lane.nodes[slot].active = false;
        lane.refresh_flag(slot);
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent::NodeDeactivated { node: id, round });
        }
        Ok(())
    }

    /// Re-activates a node (used when a pre-registered process completes its
    /// `JOIN()`).
    pub fn activate(&mut self, id: NodeId) -> Result<(), SimError> {
        let (lane, slot) = self.loc(id).ok_or(SimError::UnknownNode(id))?;
        let lane = self.lane_mut(lane);
        lane.nodes[slot].active = true;
        lane.refresh_flag(slot);
        Ok(())
    }

    /// Re-evaluates a node's wake flag after a driver-side mutation that may
    /// have changed [`Actor::wants_timeout`] (e.g. injecting a local request
    /// or asking a node to leave through [`Self::node_mut`]).
    pub fn refresh_timeout_interest(&mut self, id: NodeId) -> Result<(), SimError> {
        let (lane, slot) = self.loc(id).ok_or(SimError::UnknownNode(id))?;
        self.lane_mut(lane).refresh_flag(slot);
        Ok(())
    }

    /// Whether a node is currently active.
    pub fn is_active(&self, id: NodeId) -> bool {
        self.loc(id)
            .is_some_and(|(lane, slot)| self.lane(lane).nodes[slot].active)
    }

    /// Injects a message from the outside world (delivered like any other
    /// message, in the next round at the earliest).
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: A::Msg) -> Result<(), SimError> {
        let (lane_idx, _) = self.loc(to).ok_or(SimError::UnknownNode(to))?;
        let round = self.round;
        let lane = self.lane_mut(lane_idx);
        debug_assert_eq!(
            lane.transport.round(),
            round,
            "lane clock out of sync with driver"
        );
        let deliver_at = lane.post_local(from, to, msg);
        // Keep the aggregate counters current between rounds (the round
        // merge recomputes them wholesale from the per-lane metrics, so the
        // eager update never double-counts).
        self.metrics.messages_sent += 1;
        self.metrics.delays.record(deliver_at - round);
        self.flush_lane_trace(lane_idx);
        Ok(())
    }

    /// Moves a lane's buffered trace events into the global trace (used
    /// between rounds; the round merge does this for all lanes in order).
    fn flush_lane_trace(&mut self, lane: usize) {
        if self.trace.is_none() {
            return;
        }
        let buf = std::mem::take(&mut self.lane_mut(lane).trace_buf);
        let trace = self.trace.as_mut().expect("checked above");
        for event in &buf {
            trace.push(event.clone());
        }
        let mut buf = buf;
        buf.clear();
        self.lane_mut(lane).trace_buf = buf;
    }

    /// Substrate metrics collected so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The recorded trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Global ids of the nodes visited by the most recent
    /// [`Self::run_round`], each once, even when a same-round message made
    /// the round visit a node twice.  Single-lane simulations report the
    /// order of first visits; multi-lane runs merge the per-lane lists in
    /// ascending id order (or lane-concatenation order under shuffle).
    /// Drivers use this to post-process only the nodes that can have
    /// produced output — e.g. collecting completion records — instead of
    /// sweeping every node every round.
    pub fn visited_last_round(&self) -> &[usize] {
        &self.merged_wake
    }

    /// Hands every message sent to an id this simulation does not host to
    /// `f`, in send order (lanes in lane order), and empties the buffer.
    /// Drivers that host part of a larger id space forward these to whoever
    /// hosts the destination and [`Self::inject`] what arrives in return.
    pub fn drain_egress(&mut self, mut f: impl FnMut(NodeId, NodeId, A::Msg)) {
        for (from, to, msg) in self.egress.drain(..) {
            f(from, to, msg);
        }
    }

    /// Executes one round and returns the number of messages delivered in it.
    pub fn run_round(&mut self) -> usize {
        self.round += 1;
        let round = self.round;
        let started = Instant::now();
        let parallel = self.pool.is_some() && self.lanes.len() > 1;
        if parallel {
            let pool = self.pool.as_mut().expect("checked above");
            for idx in 0..self.lanes.len() {
                let lane = self.lanes[idx].take().expect("lane present between rounds");
                pool.submit(idx, lane, round);
            }
            for (idx, slot) in self.lanes.iter_mut().enumerate() {
                *slot = Some(pool.collect(idx));
            }
        } else {
            for slot in &mut self.lanes {
                slot.as_mut().expect("lane present").run_round(round);
            }
        }
        let round_wall_ns = started.elapsed().as_nanos() as u64;
        let routed = self.route_cross_lane();
        self.merge_round(round, round_wall_ns, parallel, routed)
    }

    /// Routes messages that crossed a lane boundary, in fixed lane order,
    /// drawing each delay from the destination lane's stream; a message to
    /// an id no lane hosts goes to the egress buffer instead.  Returns the
    /// number of routed messages, egress included.  (The Skueue cluster
    /// never takes this path — shard traffic is intra-lane by construction —
    /// but generic actors may send anywhere, and a daemon's nodes send to
    /// other daemons' nodes.)
    fn route_cross_lane(&mut self) -> u64 {
        let mut routed = 0u64;
        for src in 0..self.lanes.len() {
            if self.lane(src).xlane.is_empty() {
                continue;
            }
            let mut pending = std::mem::take(&mut self.lane_mut(src).xlane);
            debug_assert!(self.xroute.is_empty());
            self.xroute.append(&mut pending);
            self.lane_mut(src).xlane = pending;
            let mut batch = std::mem::take(&mut self.xroute);
            for (from, to, msg) in batch.drain(..) {
                match self.loc(to) {
                    Some((lane, _slot)) => {
                        self.lane_mut(lane).post_local(from, to, msg);
                    }
                    None => self.egress.push((from, to, msg)),
                }
                routed += 1;
            }
            self.xroute = batch;
        }
        routed
    }

    /// Recombines the per-lane round outputs — wake lists, traces, metrics —
    /// in fixed lane order and returns the round's delivered-message count.
    fn merge_round(
        &mut self,
        round: Round,
        round_wall_ns: u64,
        parallel: bool,
        routed: u64,
    ) -> usize {
        // Merged visit list (global ids), each id once.  One lane: the
        // exact order of first visits.  Multi-lane: ascending id order (the
        // historical global visit order) or lane-concatenation order under
        // shuffle — deterministic either way.
        self.merged_wake.clear();
        let mut revisits = false;
        for slot in &self.lanes {
            let lane = slot.as_ref().expect("lane present");
            revisits |= lane.same_round_visits > 0;
            self.merged_wake
                .extend(lane.wake_order.iter().map(|&s| lane.global_ids[s] as usize));
        }
        if self.lanes.len() > 1 && !self.config.shuffle_node_order {
            self.merged_wake.sort_unstable();
            self.merged_wake.dedup();
        } else if revisits {
            let seen = &mut self.wake_seen;
            seen.resize(self.node_loc.len().div_ceil(64), 0);
            self.merged_wake.retain(|&id| {
                let (word, bit) = (id / 64, 1u64 << (id % 64));
                let first = seen[word] & bit == 0;
                seen[word] |= bit;
                first
            });
            for &id in &self.merged_wake {
                seen[id / 64] = 0;
            }
        }

        // Trace: flush per-lane buffers in lane order.
        if self.trace.is_some() {
            for lane in 0..self.lanes.len() {
                self.flush_lane_trace(lane);
            }
        }

        // Metrics: recompute aggregate counters from the per-lane cumulative
        // ones, fold the round deltas into the per-round histograms, and
        // surface the per-lane timing columns.
        let lane_count = self.lanes.len();
        let m = &mut self.metrics;
        m.rounds = round;
        m.lane_busy_ns.resize(lane_count, 0);
        m.lane_barrier_wait_ns.resize(lane_count, 0);
        m.lane_thread_tokens.resize(lane_count, 0);
        m.delays.clear();
        let mut sent = 0u64;
        let mut delivered = 0u64;
        let mut timeouts = 0u64;
        let mut visited = 0u64;
        let mut delivered_this_round = 0usize;
        let mut sent_this_round = 0u64;
        for (l, slot) in self.lanes.iter_mut().enumerate() {
            let lane = slot.as_mut().expect("lane present");
            sent += lane.metrics.messages_sent;
            delivered += lane.metrics.messages_delivered;
            timeouts += lane.metrics.timeouts_fired;
            visited += lane.metrics.nodes_visited;
            m.delays.merge(&lane.metrics.delays);
            delivered_this_round += lane.delta_delivered;
            sent_this_round += lane.delta_sent;
            if parallel {
                lane.metrics.barrier_wait_ns += round_wall_ns.saturating_sub(lane.delta_busy_ns);
            }
            m.lane_busy_ns[l] = lane.metrics.busy_ns;
            m.lane_barrier_wait_ns[l] = lane.metrics.barrier_wait_ns;
            m.lane_thread_tokens[l] = lane.metrics.thread_token;
        }
        m.messages_sent = sent;
        m.messages_delivered = delivered;
        m.timeouts_fired = timeouts;
        m.nodes_visited = visited;
        m.per_round_deliveries.record(delivered_this_round as u64);
        m.per_round_sends.record(sent_this_round + routed);
        delivered_this_round
    }

    /// Runs exactly `rounds` rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.run_round();
        }
    }

    /// Runs rounds until `pred(self)` is true, the simulation goes quiescent,
    /// or the budget (`max_rounds`, falling back to the config's value, with
    /// `0` meaning unlimited) is exhausted.
    pub fn run_until<F>(&mut self, mut pred: F, max_rounds: u64) -> Result<RunOutcome, SimError>
    where
        F: FnMut(&Simulation<A>) -> bool,
    {
        let limit = if max_rounds > 0 {
            max_rounds
        } else {
            self.config.max_rounds
        };
        let start = self.round;
        loop {
            if pred(self) {
                return Ok(RunOutcome::Satisfied(self.round - start));
            }
            if self.is_quiescent() && self.round > start {
                // One extra quiescence check after at least one round, so
                // that drivers which inject work before calling run_until
                // still get their messages flushed.
                return Ok(RunOutcome::Quiescent(self.round - start));
            }
            if limit > 0 && self.round - start >= limit {
                return Err(SimError::RoundLimitExceeded { limit });
            }
            self.run_round();
        }
    }

    /// Runs rounds until no messages are in flight (or the budget runs out).
    pub fn run_to_quiescence(&mut self, max_rounds: u64) -> Result<Round, SimError> {
        let start = self.round;
        loop {
            if self.is_quiescent() {
                return Ok(self.round - start);
            }
            if max_rounds > 0 && self.round - start >= max_rounds {
                return Err(SimError::RoundLimitExceeded { limit: max_rounds });
            }
            self.run_round();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::DeliveryModel;

    /// A node that forwards a token `hops` more times along a ring.
    #[derive(Debug)]
    struct Ring {
        n: u64,
        received: Vec<u64>,
        timeouts: u64,
    }

    #[derive(Debug, Clone)]
    struct Token {
        remaining: u64,
    }

    impl Actor for Ring {
        type Msg = Token;

        fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut Context<Token>) {
            self.received.push(msg.remaining);
            if msg.remaining > 0 {
                let next = NodeId((ctx.self_id().0 + 1) % self.n);
                ctx.send(
                    next,
                    Token {
                        remaining: msg.remaining - 1,
                    },
                );
            }
        }

        fn on_timeout(&mut self, _ctx: &mut Context<Token>) {
            self.timeouts += 1;
        }
    }

    fn ring_sim(n: u64, config: SimConfig) -> Simulation<Ring> {
        let mut sim = Simulation::new(config).unwrap();
        for _ in 0..n {
            sim.add_node(Ring {
                n,
                received: Vec::new(),
                timeouts: 0,
            });
        }
        sim
    }

    /// Same ring, but nodes dealt round-robin over `lanes` lanes (every hop
    /// crosses a lane boundary — the worst case for the cross-lane router).
    fn laned_ring_sim(n: u64, lanes: usize, config: SimConfig) -> Simulation<Ring> {
        let mut sim = Simulation::new(config).unwrap();
        sim.configure_lanes(lanes).unwrap();
        for i in 0..n {
            sim.add_node_in_lane(
                i as usize % lanes,
                Ring {
                    n,
                    received: Vec::new(),
                    timeouts: 0,
                },
            );
        }
        sim
    }

    #[test]
    fn empty_simulation_is_quiescent() {
        let sim: Simulation<Ring> = Simulation::synchronous(0);
        assert!(sim.is_quiescent());
        assert!(sim.is_empty());
        assert_eq!(sim.round(), 0);
        assert_eq!(sim.lane_count(), 1);
        assert_eq!(sim.parallel_threads(), 1);
    }

    #[test]
    fn token_travels_one_hop_per_round_in_sync_mode() {
        let mut sim = ring_sim(5, SimConfig::synchronous(1));
        sim.inject(NodeId(0), NodeId(0), Token { remaining: 4 })
            .unwrap();
        assert_eq!(sim.in_flight(), 1);
        // 5 deliveries: remaining 4,3,2,1,0 — one per round.
        for expected_round in 1..=5u64 {
            let delivered = sim.run_round();
            assert_eq!(delivered, 1, "round {expected_round}");
        }
        assert!(sim.is_quiescent());
        assert_eq!(sim.round(), 5);
        // Node 4 got remaining=0, node 0 got remaining=4.
        assert_eq!(sim.node(NodeId(0)).unwrap().received, vec![4]);
        assert_eq!(sim.node(NodeId(4)).unwrap().received, vec![0]);
    }

    #[test]
    fn timeouts_fire_once_per_round_per_active_node() {
        let mut sim = ring_sim(3, SimConfig::synchronous(2));
        sim.run_rounds(10);
        for (_, node) in sim.iter() {
            assert_eq!(node.timeouts, 10);
        }
        assert_eq!(sim.metrics().timeouts_fired, 30);
    }

    #[test]
    fn deactivated_nodes_skip_timeouts_but_receive_messages() {
        let mut sim = ring_sim(3, SimConfig::synchronous(3));
        sim.deactivate(NodeId(1)).unwrap();
        assert!(!sim.is_active(NodeId(1)));
        sim.inject(NodeId(0), NodeId(1), Token { remaining: 0 })
            .unwrap();
        sim.run_rounds(5);
        assert_eq!(sim.node(NodeId(1)).unwrap().timeouts, 0);
        assert_eq!(sim.node(NodeId(1)).unwrap().received, vec![0]);
        sim.activate(NodeId(1)).unwrap();
        sim.run_rounds(1);
        assert_eq!(sim.node(NodeId(1)).unwrap().timeouts, 1);
    }

    #[test]
    fn inject_to_unknown_node_fails() {
        let mut sim = ring_sim(2, SimConfig::synchronous(0));
        assert!(matches!(
            sim.inject(NodeId(0), NodeId(99), Token { remaining: 0 }),
            Err(SimError::UnknownNode(_))
        ));
        assert!(sim.deactivate(NodeId(99)).is_err());
        assert!(sim.activate(NodeId(99)).is_err());
    }

    #[test]
    fn two_simulations_carry_a_ring_through_egress() {
        // One simulation hosts the even ids of a ring, the other the odd
        // ids; every hop leaves one through its egress and enters the other
        // through `inject`, as between two daemons.
        let n = 6u64;
        let ring = || Ring {
            n,
            received: Vec::new(),
            timeouts: 0,
        };
        let mut halves: [Simulation<Ring>; 2] =
            [Simulation::synchronous(1), Simulation::synchronous(2)];
        for id in 0..n {
            halves[(id % 2) as usize].add_node_at(0, NodeId(id), ring());
        }
        for (half, want) in halves.iter().zip([[0, 2, 4], [1, 3, 5]]) {
            assert_eq!(half.len(), 3, "len counts hosted nodes only");
            let ids: Vec<u64> = half.iter().map(|(id, _)| id.0).collect();
            assert_eq!(ids, want, "iter skips the gaps");
        }
        assert_eq!(
            halves[0].inject(NodeId(0), NodeId(3), Token { remaining: 0 }),
            Err(SimError::UnknownNode(NodeId(3)))
        );
        let taken = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            halves[1].add_node_at(0, NodeId(3), ring());
        }));
        assert!(taken.is_err(), "add_node_at on a taken id panics");

        halves[0]
            .inject(NodeId(0), NodeId(0), Token { remaining: n - 1 })
            .unwrap();
        let mut rounds = 0;
        while halves.iter().any(|half| half.in_flight() > 0) {
            let mut crossing = Vec::new();
            for half in &mut halves {
                half.run_round();
                half.drain_egress(|from, to, msg| crossing.push((from, to, msg)));
            }
            for (from, to, msg) in crossing {
                halves[to.index() % 2].inject(from, to, msg).unwrap();
            }
            rounds += 1;
        }
        assert_eq!(rounds, n, "one hop per round, as in one simulation");
        for half in &halves {
            for (id, ring) in half.iter() {
                assert_eq!(ring.received, vec![n - 1 - id.0], "node {id:?}");
            }
        }
    }

    #[test]
    fn run_until_quiescence() {
        let mut sim = ring_sim(4, SimConfig::synchronous(5));
        sim.inject(NodeId(0), NodeId(0), Token { remaining: 10 })
            .unwrap();
        let rounds = sim.run_to_quiescence(100).unwrap();
        assert_eq!(rounds, 11);
        let total: usize = sim.iter().map(|(_, n)| n.received.len()).sum();
        assert_eq!(total, 11);
    }

    #[test]
    fn run_until_predicate() {
        let mut sim = ring_sim(4, SimConfig::synchronous(5));
        sim.inject(NodeId(0), NodeId(0), Token { remaining: 100 })
            .unwrap();
        let outcome = sim.run_until(|s| s.round() >= 7, 1000).unwrap();
        assert_eq!(outcome, RunOutcome::Satisfied(7));
    }

    #[test]
    fn run_until_round_limit() {
        let mut sim = ring_sim(4, SimConfig::synchronous(5));
        sim.inject(
            NodeId(0),
            NodeId(0),
            Token {
                remaining: u64::MAX,
            },
        )
        .unwrap();
        let err = sim.run_until(|_| false, 20).unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 20 });
    }

    #[test]
    fn async_mode_delivers_everything_exactly_once() {
        let mut config = SimConfig::asynchronous(9, 7);
        config.record_trace = true;
        let mut sim = ring_sim(6, config);
        for i in 0..6u64 {
            sim.inject(NodeId(i), NodeId(i), Token { remaining: 9 })
                .unwrap();
        }
        sim.run_to_quiescence(10_000).unwrap();
        let total: usize = sim.iter().map(|(_, n)| n.received.len()).sum();
        assert_eq!(total, 60, "each of the 6 tokens must make 10 hops");
        assert_eq!(
            sim.metrics().messages_sent,
            sim.metrics().messages_delivered
        );
    }

    #[test]
    fn async_mode_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sim = ring_sim(5, SimConfig::asynchronous(seed, 5));
            sim.inject(NodeId(0), NodeId(0), Token { remaining: 20 })
                .unwrap();
            sim.run_to_quiescence(100_000).unwrap();
            (
                sim.round(),
                sim.iter()
                    .map(|(_, n)| n.received.clone())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(77), run(77));
        // Different seeds almost surely produce a different schedule length.
        let (r1, _) = run(1);
        let (r2, _) = run(2);
        // They may coincide, but the received sequences should rarely be equal;
        // just assert both runs completed.
        assert!(r1 > 0 && r2 > 0);
    }

    #[test]
    fn metrics_track_messages_and_delays() {
        let mut sim = ring_sim(3, SimConfig::synchronous(4));
        sim.inject(NodeId(0), NodeId(0), Token { remaining: 5 })
            .unwrap();
        sim.run_to_quiescence(100).unwrap();
        let m = sim.metrics();
        assert_eq!(m.messages_sent, 6);
        assert_eq!(m.messages_delivered, 6);
        assert_eq!(m.delays.max(), Some(1));
        assert!(m.avg_deliveries_per_round() > 0.0);
        assert_eq!(m.lane_busy_ns.len(), 1);
        assert_eq!(m.lane_barrier_wait_ns, vec![0]);
    }

    #[test]
    fn trace_records_send_and_delivery() {
        let config = SimConfig::synchronous(1).with_trace();
        let mut sim = ring_sim(2, config);
        sim.inject(NodeId(0), NodeId(1), Token { remaining: 0 })
            .unwrap();
        // The injected send is visible in the trace before any round runs.
        let trace = sim.trace().unwrap();
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Sent { .. })));
        sim.run_rounds(2);
        let trace = sim.trace().unwrap();
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Delivered { .. })));
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::NodeAdded { .. })));
    }

    #[test]
    fn adversarial_delivery_still_delivers_all() {
        let mut config = SimConfig::synchronous(11);
        config.delivery = DeliveryModel::Adversarial {
            straggle_prob: 0.5,
            straggle_delay: 40,
        };
        let mut sim = ring_sim(4, config);
        sim.inject(NodeId(0), NodeId(0), Token { remaining: 30 })
            .unwrap();
        sim.run_to_quiescence(100_000).unwrap();
        let total: usize = sim.iter().map(|(_, n)| n.received.len()).sum();
        assert_eq!(total, 31);
    }

    #[test]
    fn node_mut_allows_driver_side_mutation() {
        let mut sim = ring_sim(2, SimConfig::synchronous(0));
        sim.node_mut(NodeId(0)).unwrap().timeouts = 99;
        assert_eq!(sim.node(NodeId(0)).unwrap().timeouts, 99);
        assert!(sim.node_mut(NodeId(5)).is_none());
    }

    /// An actor that only wants timeouts while `armed` is set; receiving a
    /// message arms it once.
    #[derive(Debug, Default)]
    struct Sleeper {
        armed: bool,
        timeouts: u64,
        received: u64,
    }

    impl Actor for Sleeper {
        type Msg = ();

        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<()>) {
            self.received += 1;
            self.armed = true;
        }

        fn on_timeout(&mut self, _ctx: &mut Context<()>) {
            self.timeouts += 1;
            self.armed = false;
        }

        fn wants_timeout(&self) -> bool {
            self.armed
        }
    }

    #[test]
    fn wants_timeout_false_skips_visits_but_not_deliveries() {
        let mut sim: Simulation<Sleeper> = Simulation::synchronous(1);
        let a = sim.add_node(Sleeper::default());
        let b = sim.add_node(Sleeper::default());
        sim.run_rounds(5);
        // Nobody is armed: no timeouts fire, no nodes are visited.
        assert_eq!(sim.metrics().timeouts_fired, 0);
        assert_eq!(sim.metrics().nodes_visited, 0);
        // A message still wakes the destination, whose next timeout then
        // fires exactly once (on_timeout disarms again).
        sim.inject(a, b, ()).unwrap();
        sim.run_rounds(3);
        assert_eq!(sim.node(b).unwrap().received, 1);
        assert_eq!(sim.node(b).unwrap().timeouts, 1);
        assert_eq!(sim.node(a).unwrap().timeouts, 0);
    }

    #[test]
    fn refresh_timeout_interest_after_driver_mutation() {
        let mut sim: Simulation<Sleeper> = Simulation::synchronous(2);
        let a = sim.add_node(Sleeper::default());
        sim.run_rounds(2);
        assert_eq!(sim.node(a).unwrap().timeouts, 0);
        // Driver-side arming is invisible until the interest is refreshed.
        sim.node_mut(a).unwrap().armed = true;
        sim.refresh_timeout_interest(a).unwrap();
        sim.run_rounds(1);
        assert_eq!(sim.node(a).unwrap().timeouts, 1);
        assert!(sim.refresh_timeout_interest(NodeId(9)).is_err());
    }

    #[test]
    fn visited_last_round_lists_woken_nodes() {
        let mut sim = ring_sim(3, SimConfig::synchronous(4));
        sim.run_rounds(1);
        // All ring nodes want timeouts, so all are visited in index order.
        assert_eq!(sim.visited_last_round(), &[0, 1, 2]);

        // Co-located sends: node 2 wakes alone and messages node 0, which is
        // then visited after the scan; node 0 is listed once, after node 2.
        let mut sim = trio_sim(1, 1, SimConfig::synchronous(4), |_| false);
        sim.node_mut(NodeId(2)).unwrap().plan = vec![vec![0]];
        sim.refresh_timeout_interest(NodeId(2)).unwrap();
        sim.run_round();
        assert_eq!(sim.visited_last_round(), &[2, 0]);
        // A node visited by the scan and again after it is listed once.
        let mut sim = trio_sim(1, 1, SimConfig::synchronous(4), |_| true);
        sim.node_mut(NodeId(2)).unwrap().plan = vec![vec![0]];
        sim.run_round();
        assert_eq!(sim.node(NodeId(0)).unwrap().timeouts, 2);
        assert_eq!(sim.visited_last_round(), &[0, 1, 2]);
        assert_eq!(sim.metrics().nodes_visited, 4, "the metric counts visits");
    }

    #[test]
    fn lanes_must_be_configured_before_nodes() {
        let mut sim = ring_sim(2, SimConfig::synchronous(0));
        assert!(matches!(
            sim.configure_lanes(2),
            Err(SimError::InvalidConfig(_))
        ));
        let mut empty: Simulation<Ring> = Simulation::synchronous(0);
        assert!(matches!(
            empty.configure_lanes(0),
            Err(SimError::InvalidConfig(_))
        ));
        empty.configure_lanes(3).unwrap();
        assert_eq!(empty.lane_count(), 3);
    }

    #[test]
    fn multi_lane_ring_delivers_across_lane_boundaries() {
        // Round-robin lane assignment: every hop crosses lanes, exercising
        // the driver's router.
        let mut sim = laned_ring_sim(6, 3, SimConfig::synchronous(7));
        assert_eq!(sim.lane_of(NodeId(0)), Some(0));
        assert_eq!(sim.lane_of(NodeId(1)), Some(1));
        assert_eq!(sim.lane_of(NodeId(5)), Some(2));
        sim.inject(NodeId(0), NodeId(0), Token { remaining: 11 })
            .unwrap();
        sim.run_to_quiescence(100).unwrap();
        let total: usize = sim.iter().map(|(_, n)| n.received.len()).sum();
        assert_eq!(total, 12, "every hop must be delivered exactly once");
        assert_eq!(
            sim.metrics().messages_sent,
            sim.metrics().messages_delivered
        );
        // A cross-lane hop costs one extra round (routed after the barrier,
        // delivered next round) — same `deliver_at = round + 1` contract.
        assert!(sim.round() >= 12);
    }

    #[test]
    fn visited_last_round_merges_lanes_in_ascending_id_order() {
        let mut sim = laned_ring_sim(5, 2, SimConfig::synchronous(4));
        sim.run_rounds(1);
        assert_eq!(sim.visited_last_round(), &[0, 1, 2, 3, 4]);
    }

    /// A lane-local pinger: node `i` messages its own lane's partner every
    /// round (all traffic intra-lane, like Skueue shards).
    #[derive(Debug)]
    struct LanePinger {
        partner: NodeId,
        received: u64,
    }

    impl Actor for LanePinger {
        type Msg = u64;

        fn on_message(&mut self, _from: NodeId, msg: u64, _ctx: &mut Context<u64>) {
            self.received += msg;
        }

        fn on_timeout(&mut self, ctx: &mut Context<u64>) {
            ctx.send(self.partner, 1);
        }
    }

    fn pinger_sim(pairs: usize, lanes: usize, threads: usize, seed: u64) -> Simulation<LanePinger> {
        let mut sim = Simulation::new(SimConfig::synchronous(seed)).unwrap();
        sim.configure_lanes(lanes).unwrap();
        for p in 0..pairs {
            let lane = p % lanes;
            let a = NodeId((2 * p) as u64);
            let b = NodeId((2 * p + 1) as u64);
            sim.add_node_in_lane(
                lane,
                LanePinger {
                    partner: b,
                    received: 0,
                },
            );
            sim.add_node_in_lane(
                lane,
                LanePinger {
                    partner: a,
                    received: 0,
                },
            );
        }
        sim.enable_parallel(threads);
        sim
    }

    fn pinger_fingerprint(sim: &Simulation<LanePinger>) -> (Vec<u64>, u64, u64, u64) {
        (
            sim.iter().map(|(_, n)| n.received).collect(),
            sim.metrics().messages_sent,
            sim.metrics().messages_delivered,
            sim.metrics().nodes_visited,
        )
    }

    #[test]
    fn parallel_backend_is_bit_identical_to_single_thread() {
        for &threads in &[0usize, 1, 2, 4] {
            let mut reference = pinger_sim(8, 4, 1, 42);
            let mut parallel = pinger_sim(8, 4, threads, 42);
            assert_eq!(parallel.parallel_threads(), threads.clamp(1, 4));
            for _ in 0..50 {
                let d_ref = reference.run_round();
                let d_par = parallel.run_round();
                assert_eq!(d_ref, d_par, "per-round delivery counts must match");
                assert_eq!(
                    reference.visited_last_round(),
                    parallel.visited_last_round()
                );
            }
            assert_eq!(
                pinger_fingerprint(&reference),
                pinger_fingerprint(&parallel),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_backend_runs_lanes_on_distinct_threads() {
        let mut sim = pinger_sim(8, 4, 4, 1);
        sim.run_rounds(3);
        let tokens = &sim.metrics().lane_thread_tokens;
        assert_eq!(tokens.len(), 4);
        let distinct: std::collections::HashSet<u64> = tokens.iter().copied().collect();
        assert!(
            distinct.len() >= 2,
            "expected >=2 distinct worker threads, got {tokens:?}"
        );
        assert!(
            !distinct.contains(&thread_token()),
            "lanes must not run on the driver thread"
        );
        // Per-lane timing columns are populated.
        assert!(sim.metrics().lane_busy_ns.iter().all(|&ns| ns > 0));
    }

    #[test]
    fn parallel_backend_can_be_toggled_between_rounds() {
        let mut reference = pinger_sim(4, 2, 1, 9);
        let mut toggled = pinger_sim(4, 2, 1, 9);
        for i in 0..30 {
            toggled.enable_parallel(if i % 2 == 0 { 2 } else { 1 });
            reference.run_round();
            toggled.run_round();
        }
        assert_eq!(pinger_fingerprint(&reference), pinger_fingerprint(&toggled));
    }

    #[derive(Debug)]
    struct Bomb;

    impl Actor for Bomb {
        type Msg = ();

        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<()>) {}

        fn on_timeout(&mut self, _ctx: &mut Context<()>) {
            panic!("bomb went off");
        }
    }

    #[test]
    #[should_panic(expected = "lane panicked")]
    fn a_panicking_lane_surfaces_from_run_round_on_the_parallel_backend() {
        let mut sim = Simulation::new(SimConfig::synchronous(1)).unwrap();
        sim.configure_lanes(2).unwrap();
        sim.add_node_in_lane(0, Bomb);
        sim.add_node_in_lane(1, Bomb);
        sim.enable_parallel(2);
        assert_eq!(sim.parallel_threads(), 2);
        sim.run_round();
    }

    /// Nodes `3p`, `3p + 1` and `3p + 2` form process `p` and declare each
    /// other co-located.  A walk carries the rest of its route; every
    /// receiver logs `(sent round, handled round)` and forwards it.
    #[derive(Debug)]
    struct Trio {
        me: u64,
        awake: bool,
        log: Vec<(Round, Round)>,
        /// Routes to start, one per timeout.
        plan: Vec<Vec<u64>>,
        timeouts: u64,
    }

    #[derive(Debug, Clone)]
    struct Walk {
        sent_at: Round,
        rest: Vec<u64>,
    }

    impl Trio {
        fn walk(ctx: &mut Context<Walk>, mut route: Vec<u64>) {
            if !route.is_empty() {
                let next = NodeId(route.remove(0));
                let sent_at = ctx.round();
                ctx.send(
                    next,
                    Walk {
                        sent_at,
                        rest: route,
                    },
                );
            }
        }
    }

    impl Actor for Trio {
        type Msg = Walk;

        fn on_message(&mut self, _from: NodeId, msg: Walk, ctx: &mut Context<Walk>) {
            self.log.push((msg.sent_at, ctx.round()));
            Trio::walk(ctx, msg.rest);
        }

        fn on_timeout(&mut self, ctx: &mut Context<Walk>) {
            self.timeouts += 1;
            if !self.plan.is_empty() {
                let route = self.plan.remove(0);
                Trio::walk(ctx, route);
            }
        }

        fn wants_timeout(&self) -> bool {
            self.awake || !self.plan.is_empty()
        }

        fn co_located(&self, to: NodeId) -> bool {
            to.0 != self.me && to.0 / 3 == self.me / 3
        }
    }

    /// `processes` trios, process `p` in lane `p % lanes`; `awake(id)` says
    /// which nodes want a timeout every round.
    fn trio_sim(
        processes: u64,
        lanes: usize,
        config: SimConfig,
        awake: impl Fn(u64) -> bool,
    ) -> Simulation<Trio> {
        let mut sim = Simulation::new(config).unwrap();
        sim.configure_lanes(lanes).unwrap();
        for me in 0..3 * processes {
            let trio = Trio {
                me,
                awake: awake(me),
                log: Vec::new(),
                plan: Vec::new(),
                timeouts: 0,
            };
            sim.add_node_at((me / 3) as usize % lanes, NodeId(me), trio);
        }
        sim
    }

    fn log_of(sim: &Simulation<Trio>, id: u64) -> &[(Round, Round)] {
        &sim.node(NodeId(id)).unwrap().log
    }

    #[test]
    fn co_located_messages_are_handled_in_their_send_round() {
        let mut sim = trio_sim(1, 1, SimConfig::synchronous(3).with_trace(), |_| true);
        // Node 0 messages node 1, which the scan has not reached yet; node 2
        // messages node 0, which the scan has already visited.
        sim.node_mut(NodeId(0)).unwrap().plan = vec![vec![1]];
        sim.node_mut(NodeId(2)).unwrap().plan = vec![vec![0]];
        assert_eq!(sim.run_round(), 2);
        assert_eq!(log_of(&sim, 1), &[(1, 1)]);
        assert_eq!(log_of(&sim, 0), &[(1, 1)]);
        // Node 1 took its message in its normal visit; node 0 was visited
        // again, an ordinary visit with a timeout.
        assert_eq!(sim.node(NodeId(1)).unwrap().timeouts, 1);
        assert_eq!(sim.node(NodeId(0)).unwrap().timeouts, 2);
        assert_eq!(sim.in_flight(), 0);
        let m = sim.metrics();
        assert_eq!((m.messages_sent, m.messages_delivered), (2, 2));
        assert_eq!(m.delays.max(), Some(0));
        let sends: Vec<(Round, Round)> = sim
            .trace()
            .unwrap()
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Sent {
                    round, deliver_at, ..
                } => Some((round, deliver_at)),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![(1, 1), (1, 1)]);
    }

    #[test]
    fn a_sibling_chain_finishes_in_one_round_and_other_nodes_wait_one() {
        let mut sim = trio_sim(2, 1, SimConfig::synchronous(5), |_| false);
        // r → m → l inside process 0, then on to process 1's left node.
        sim.node_mut(NodeId(2)).unwrap().plan = vec![vec![1, 0, 3]];
        sim.refresh_timeout_interest(NodeId(2)).unwrap();
        sim.run_round();
        assert_eq!(log_of(&sim, 1), &[(1, 1)]);
        assert_eq!(log_of(&sim, 0), &[(1, 1)]);
        assert!(log_of(&sim, 3).is_empty());
        assert_eq!(
            sim.in_flight(),
            1,
            "the hop to another process is in flight"
        );
        sim.run_round();
        assert_eq!(log_of(&sim, 3), &[(1, 2)]);
        assert_eq!(sim.in_flight(), 0);
    }

    #[test]
    fn asynchronous_models_still_delay_co_located_messages() {
        let mut sim = trio_sim(2, 1, SimConfig::asynchronous(8, 4), |_| false);
        for id in [2, 5] {
            sim.node_mut(NodeId(id)).unwrap().plan = vec![vec![1, 0, 2, 1], vec![0, 2]];
            sim.refresh_timeout_interest(NodeId(id)).unwrap();
        }
        sim.run_rounds(2);
        sim.run_to_quiescence(1_000).unwrap();
        let logs: Vec<(Round, Round)> = (0..6).flat_map(|id| log_of(&sim, id).to_vec()).collect();
        assert_eq!(logs.len(), 12);
        assert!(
            logs.iter().all(|&(sent, handled)| handled > sent),
            "{logs:?}"
        );
        assert!(sim.metrics().delays.min().unwrap() >= 1);
    }

    #[test]
    fn same_round_delivery_is_identical_on_the_parallel_backend() {
        let routed = |threads: usize| {
            let mut sim = trio_sim(4, 2, SimConfig::synchronous(6), |id| id % 4 == 0);
            let mut rng = SimRng::new(17);
            for p in 0..4u64 {
                // Walks inside process p and to the processes of its lane.
                let route: Vec<u64> = (0..30)
                    .map(|_| 3 * (p % 2 + 2 * rng.gen_range(2)) + rng.gen_range(3))
                    .collect();
                sim.node_mut(NodeId(3 * p + 2)).unwrap().plan = vec![route.clone(), route];
                sim.refresh_timeout_interest(NodeId(3 * p + 2)).unwrap();
            }
            sim.enable_parallel(threads);
            let mut visited = Vec::new();
            for _ in 0..40 {
                sim.run_round();
                visited.push(sim.visited_last_round().to_vec());
            }
            let logs: Vec<Vec<(Round, Round)>> =
                (0..12).map(|id| log_of(&sim, id).to_vec()).collect();
            (visited, logs, sim.metrics().nodes_visited)
        };
        let serial = routed(1);
        assert!(serial.1.iter().flatten().any(|&(s, h)| s == h));
        assert_eq!(serial, routed(2));
    }

    #[test]
    #[should_panic(expected = "declares node n2 co-located, but n2 is not hosted in its lane")]
    fn a_co_located_node_in_another_lane_panics() {
        let mut sim = Simulation::new(SimConfig::synchronous(1)).unwrap();
        sim.configure_lanes(2).unwrap();
        for me in 0..3u64 {
            let trio = Trio {
                me,
                awake: false,
                log: Vec::new(),
                plan: Vec::new(),
                timeouts: 0,
            };
            sim.add_node_at(usize::from(me == 2), NodeId(me), trio);
        }
        sim.node_mut(NodeId(0)).unwrap().plan = vec![vec![2]];
        sim.refresh_timeout_interest(NodeId(0)).unwrap();
        sim.run_round();
    }

    /// Two co-located nodes that answer every message with another.
    #[derive(Debug)]
    struct PingPong;

    impl Actor for PingPong {
        type Msg = ();

        fn on_message(&mut self, from: NodeId, _msg: (), ctx: &mut Context<()>) {
            ctx.send(from, ());
        }

        fn on_timeout(&mut self, _ctx: &mut Context<()>) {}

        fn wants_timeout(&self) -> bool {
            false
        }

        fn co_located(&self, _to: NodeId) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "same-round delivery loop")]
    fn a_same_round_ping_pong_panics_instead_of_hanging() {
        let mut sim = Simulation::synchronous(1);
        let a = sim.add_node(PingPong);
        let b = sim.add_node(PingPong);
        sim.inject(a, b, ()).unwrap();
        sim.run_round();
    }

    /// A node that counts received payloads and asserts delivery-time bounds.
    #[derive(Debug)]
    struct BoundsChecker {
        n: u64,
        min_delay: u64,
        max_delay: u64,
        received: u64,
    }

    #[derive(Debug, Clone)]
    struct Hop {
        sent_at: u64,
        remaining: u64,
    }

    impl Actor for BoundsChecker {
        type Msg = Hop;

        fn on_message(&mut self, _from: NodeId, msg: Hop, ctx: &mut Context<Hop>) {
            let now = ctx.round();
            assert!(
                now >= msg.sent_at + self.min_delay,
                "delivered at {now}, sent at {} with min delay {}",
                msg.sent_at,
                self.min_delay
            );
            assert!(
                now <= msg.sent_at + self.max_delay,
                "delivered at {now}, sent at {} with max delay {}",
                msg.sent_at,
                self.max_delay
            );
            self.received += 1;
            if msg.remaining > 0 {
                let next = NodeId((ctx.self_id().0 + 1) % self.n);
                ctx.send(
                    next,
                    Hop {
                        sent_at: now,
                        remaining: msg.remaining - 1,
                    },
                );
            }
        }

        fn on_timeout(&mut self, _ctx: &mut Context<Hop>) {}
    }

    proptest::proptest! {
        /// The bucketed delivery wheel never delivers a message before its
        /// `deliver_at` (sent round + model delay), never after the model's
        /// maximum delay, and never drops or duplicates one.
        #[test]
        fn prop_bucketed_delivery_respects_bounds_and_loses_nothing(
            seed in proptest::any::<u64>(),
            n in 2u64..12,
            min_delay in 1u64..4,
            extra in 0u64..5,
            hops in 1u64..30,
            injections in 1u64..5,
        ) {
            let max_delay = min_delay + extra;
            let mut config = SimConfig::asynchronous(seed, max_delay);
            config.delivery = crate::DeliveryModel::UniformRandom { min_delay, max_delay };
            let mut sim = Simulation::new(config).unwrap();
            for _ in 0..n {
                sim.add_node(BoundsChecker {
                    n,
                    min_delay,
                    max_delay,
                    received: 0,
                });
            }
            for i in 0..injections {
                sim.inject(
                    NodeId(i % n),
                    NodeId(i % n),
                    Hop { sent_at: 0, remaining: hops },
                )
                .unwrap();
            }
            sim.run_to_quiescence(1_000_000).unwrap();
            let total: u64 = (0..n).map(|i| sim.node(NodeId(i)).unwrap().received).sum();
            // Every injected token makes hops + 1 deliveries; nothing lost,
            // nothing duplicated.
            proptest::prop_assert_eq!(total, injections * (hops + 1));
            proptest::prop_assert_eq!(
                sim.metrics().messages_sent,
                sim.metrics().messages_delivered
            );
            proptest::prop_assert_eq!(sim.in_flight(), 0);
        }
    }
}
