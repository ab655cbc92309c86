//! The simulation's message fabric: who moves a posted message toward its
//! receiver.
//!
//! Each lane of a [`crate::Simulation`] embeds one [`SimTransport`] and calls
//! its inherent methods directly.  Delays are drawn from a seeded RNG
//! according to a [`DeliveryModel`]; for a fixed seed the schedule is
//! bit-for-bit reproducible, which the golden-history tests and the perf
//! gate rely on.  A synchronous-model message to a co-located node
//! ([`crate::Actor::co_located`]) never reaches a transport either: the
//! lane hands it over in its send round.  A message to an id the simulation
//! does not host never reaches a transport: it leaves through
//! [`crate::Simulation::drain_egress`], which is how a `skueue-node` daemon
//! (crate `skueue-net`) hands messages to its TCP peers.  The determinism
//! boundary therefore runs through the driver's `inject`/`drain_egress`:
//! everything inside a simulation is reproducible, and the order in which
//! frames cross sockets is wall-clock.

use crate::delivery::DeliveryModel;
use crate::ids::NodeId;
use crate::message::Envelope;
use crate::rng::SimRng;
use crate::Round;
use std::collections::BTreeMap;

/// Upper bound on parked spare bucket vectors.  Delivery models bound the
/// number of distinct in-flight `deliver_at` rounds (1 for synchronous,
/// `max_delay` / `straggle_delay` otherwise), so a small pool suffices; the
/// cap only guards against unbounded growth under pathological models.
const SPARE_BUCKET_LIMIT: usize = 64;

/// The deterministic simulation transport: a round-bucketed delivery wheel
/// plus the seeded delay RNG and the per-lane message sequence.
///
/// Each lane owns one and calls [`Self::dispatch`] and [`Self::take_due`]
/// directly.
#[derive(Debug)]
pub struct SimTransport<M> {
    delivery: DeliveryModel,
    /// The lane's independent RNG stream.  Feeds the delay draws *and* the
    /// per-visit context seeds, in one interleaved sequence — exactly the
    /// historical draw order, which the byte-identical goldens pin.
    pub(crate) rng: SimRng,
    /// Monotone per-transport message sequence (tie-breaker metadata).
    seq: u64,
    /// The round the owning lane last executed (send round for posts).
    round: Round,
    /// Messages accepted but not yet delivered.
    in_flight: usize,
    /// Round-bucketed delivery wheel: `deliver_at → envelopes` in send order.
    /// The next round's bucket is kept out of the map in `hot_bucket`, so in
    /// the synchronous model (and for every delay-1 message) a post is a
    /// plain `Vec::push` with no map traversal.
    wheel: BTreeMap<Round, Vec<Envelope<M>>>,
    /// The round `hot_bucket` collects messages for (always `round + 1`
    /// while actors run).
    hot_round: Round,
    /// Bucket for `hot_round`, appended to in send (= seq) order.
    hot_bucket: Vec<Envelope<M>>,
    /// Emptied bucket vectors parked for reuse (see [`SPARE_BUCKET_LIMIT`]).
    spare_buckets: Vec<Vec<Envelope<M>>>,
}

impl<M> SimTransport<M> {
    /// A fresh transport with the given delivery model and RNG stream.
    pub fn new(delivery: DeliveryModel, rng: SimRng) -> Self {
        SimTransport {
            delivery,
            rng,
            seq: 0,
            round: 0,
            in_flight: 0,
            wheel: BTreeMap::new(),
            hot_round: 1,
            hot_bucket: Vec::new(),
            spare_buckets: Vec::new(),
        }
    }

    /// The round this transport considers "now" (the owning lane's clock).
    #[inline]
    pub fn round(&self) -> Round {
        self.round
    }

    /// Number of accepted-but-undelivered messages.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Mutable access to the transport's RNG stream.  The lane draws its
    /// per-visit context seeds from the same stream as the delay draws
    /// (historical behavior the goldens depend on).
    #[inline]
    pub(crate) fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Takes the next message sequence number without scheduling anything
    /// (for a message the lane hands over in its send round).
    #[inline]
    pub(crate) fn take_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Schedules a message and returns its delivery round.  The delay is
    /// drawn from the delivery model (at least 1: a message is never
    /// delivered in its send round).
    #[inline]
    pub fn dispatch(&mut self, from: NodeId, to: NodeId, msg: M) -> Round {
        let delay = self.delivery.draw_delay(&mut self.rng).max(1);
        let deliver_at = self.round + delay;
        let seq = self.take_seq();
        self.in_flight += 1;
        let envelope = Envelope {
            from,
            to,
            sent_at: self.round,
            deliver_at,
            seq,
            payload: msg,
        };
        if deliver_at == self.hot_round {
            self.hot_bucket.push(envelope);
        } else {
            self.wheel
                .entry(deliver_at)
                .or_insert_with(|| self.spare_buckets.pop().unwrap_or_default())
                .push(envelope);
        }
        deliver_at
    }

    /// Advances the transport's clock to `round`, hands every envelope due
    /// in it to `deliver` (hot bucket first, then wheel buckets in ascending
    /// `deliver_at`; each bucket was filled in send order, so the overall
    /// sequence is `(deliver_at, seq)`-ordered), rotates the hot bucket to
    /// `round + 1`, and returns the number of delivered envelopes.
    pub fn take_due(&mut self, round: Round, mut deliver: impl FnMut(Envelope<M>)) -> usize {
        self.round = round;
        let mut delivered_total = 0usize;
        if self.hot_round == round {
            let mut bucket = std::mem::take(&mut self.hot_bucket);
            delivered_total += bucket.len();
            for env in bucket.drain(..) {
                deliver(env);
            }
            self.hot_bucket = bucket;
        }
        while let Some(entry) = self.wheel.first_entry() {
            if *entry.key() > round {
                break;
            }
            let mut bucket = entry.remove();
            delivered_total += bucket.len();
            for env in bucket.drain(..) {
                deliver(env);
            }
            if self.spare_buckets.len() < SPARE_BUCKET_LIMIT {
                self.spare_buckets.push(bucket);
            }
        }
        self.in_flight -= delivered_total;

        // Advance the hot bucket to the next round: adopt an already-open
        // wheel bucket for it (keeping seq order — its envelopes were posted
        // earlier), or reuse the drained vector.
        self.hot_round = round + 1;
        if let Some(early) = self.wheel.remove(&(round + 1)) {
            let drained = std::mem::replace(&mut self.hot_bucket, early);
            if self.spare_buckets.len() < SPARE_BUCKET_LIMIT {
                self.spare_buckets.push(drained);
            }
        }
        delivered_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sync_transport() -> SimTransport<u32> {
        SimTransport::new(DeliveryModel::Synchronous, SimRng::new(1))
    }

    #[test]
    fn synchronous_dispatch_delivers_next_round() {
        let mut t = sync_transport();
        assert_eq!(t.dispatch(NodeId(0), NodeId(1), 7), 1);
        assert_eq!(t.in_flight(), 1);
        let mut got = Vec::new();
        let n = t.take_due(1, |env| got.push((env.to, env.payload, env.seq)));
        assert_eq!(n, 1);
        assert_eq!(got, vec![(NodeId(1), 7, 0)]);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn envelopes_arrive_in_deliver_at_then_seq_order() {
        let mut t = SimTransport::new(
            DeliveryModel::UniformRandom {
                min_delay: 1,
                max_delay: 5,
            },
            SimRng::new(42),
        );
        for i in 0..100u32 {
            t.dispatch(NodeId(0), NodeId(1), i);
        }
        let mut seen: Vec<(Round, u64)> = Vec::new();
        for round in 1..=6 {
            t.take_due(round, |env| {
                assert_eq!(env.deliver_at, round);
                seen.push((env.deliver_at, env.seq));
            });
        }
        assert_eq!(seen.len(), 100, "nothing lost");
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted, "(deliver_at, seq) order");
        assert_eq!(t.in_flight(), 0);
    }
}
