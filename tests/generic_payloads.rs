//! End-to-end coverage for generic payloads (`Skueue<T>`).
//!
//! Three guarantees are pinned here:
//!
//! 1. **`Skueue<u64>` is bit-identical to the pre-generics protocol.**  The
//!    golden fingerprints below were captured from the PR-4 tree (the last
//!    commit before payloads became generic) on the exact workloads of the
//!    determinism suite; the generic code must reproduce every record byte
//!    for byte — same order keys, same rounds, same payload slots.
//! 2. **Arbitrary byte payloads round-trip exactly once.**  A proptest
//!    drives `Skueue<Vec<u8>>` through join/leave churn under shuffled,
//!    reordering delivery and asserts exactly-once completion with
//!    byte-identical payload round-trips.
//! 3. **A non-trivial payload type works across every layer** — `String`
//!    jobs through a sharded queue, verified by `check_queue_sharded`
//!    (whose payload round-trip rule rejects any transformation).

use proptest::prelude::*;
use skueue::prelude::*;
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------------
// 1. Golden `Skueue<u64>` histories (captured at PR-4).
// ---------------------------------------------------------------------------

/// FNV-1a over every field of every record, in completion order.  Any change
/// to the witnessed history — order keys, latencies, payload slots, even the
/// `⊥` payload default — changes this value.
fn fingerprint(records: &[skueue_verify::OpRecord<u64>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for r in records {
        mix(r.id.origin.raw());
        mix(r.id.seq);
        mix(match r.kind {
            OpKind::Enqueue => 1,
            OpKind::Dequeue => 2,
        });
        mix(r.value);
        match r.result {
            skueue_verify::OpResult::Enqueued => mix(3),
            skueue_verify::OpResult::Empty => mix(4),
            skueue_verify::OpResult::Returned(src) => {
                mix(5);
                mix(src.origin.raw());
                mix(src.seq);
            }
        }
        mix(r.order.wave);
        mix(r.order.shard);
        mix(r.order.major);
        mix(r.order.origin);
        mix(r.order.minor);
        mix(r.issued_round);
        mix(r.completed_round);
    }
    h
}

/// The determinism suite's mixed workload with churn (see
/// `tests/determinism.rs`), pinned to `Skueue<u64>`.
fn run_golden_workload(
    seed: u64,
    asynchronous: bool,
    shards: usize,
) -> Vec<skueue_verify::OpRecord<u64>> {
    let mut builder = Skueue::<u64>::builder()
        .processes(6)
        .seed(seed)
        .shards(shards);
    if asynchronous {
        builder = builder.asynchronous(4);
    }
    let mut cluster = builder.build().unwrap();
    let mut rng = SimRng::new(seed ^ 0x0DD5EED);
    for step in 0..80u64 {
        let p = ProcessId(rng.gen_range(6));
        if cluster.process_may_issue(p) {
            let mut client = cluster.client(p);
            if rng.gen_bool(0.6) {
                client.enqueue(1000 + step).unwrap();
            } else {
                client.dequeue().unwrap();
            }
        }
        if step == 30 {
            cluster.join(None).unwrap();
        }
        if step == 60 {
            let _ = (0..6u64).map(ProcessId).find(|&p| cluster.leave(p).is_ok());
        }
        if step % 2 == 0 {
            cluster.run_round();
        }
    }
    cluster.run_until_all_complete(20_000).unwrap();
    cluster.run_rounds(50);
    cluster.into_history().into_records()
}

/// `(seed, asynchronous, shards, record count, fingerprint)` captured from
/// the PR-4 tree immediately before the generic-payload refactor.
/// The synchronous entries were re-pinned once, when messages between a
/// process's own virtual nodes became same-round deliveries; the
/// asynchronous entry and every record count are unchanged.
const PR4_GOLDEN: [(u64, bool, usize, usize, u64); 4] = [
    (1, false, 1, 79, 0x8510_f386_f821_43bc),
    (42, false, 1, 76, 0x97aa_6c46_ca66_e840),
    (7, true, 1, 78, 0x7112_7a98_aaa6_3df0),
    (5, false, 2, 74, 0x165e_9477_79b0_6b4f),
];

#[test]
fn u64_histories_are_bit_identical_to_pr4() {
    for (seed, asynchronous, shards, len, fp) in PR4_GOLDEN {
        let records = run_golden_workload(seed, asynchronous, shards);
        assert_eq!(
            records.len(),
            len,
            "record count drifted from PR-4 (seed {seed}, async {asynchronous}, S={shards})"
        );
        assert_eq!(
            fingerprint(&records),
            fp,
            "history fingerprint drifted from PR-4 (seed {seed}, async {asynchronous}, S={shards})"
        );
    }
}

// ---------------------------------------------------------------------------
// 2. Byte payloads under churn + shuffled delivery (proptest).
// ---------------------------------------------------------------------------

/// One churny `Skueue<Vec<u8>>` workload; returns the issued payloads (by
/// request id) and the completed records.
#[allow(clippy::type_complexity)]
fn run_bytes_workload(
    seed: u64,
    ops: &[(bool, Vec<u8>)],
    join_at: usize,
    leave_at: usize,
    max_delay: u64,
) -> (
    HashMap<RequestId, Vec<u8>>,
    Vec<skueue_verify::OpRecord<Vec<u8>>>,
) {
    let mut cluster = Skueue::<Vec<u8>>::builder()
        .processes(5)
        .asynchronous(max_delay)
        .seed(seed)
        .build()
        .unwrap();
    let mut rng = SimRng::new(seed ^ 0xB17E5);
    let mut issued = HashMap::new();
    for (step, (is_insert, payload)) in ops.iter().enumerate() {
        let p = ProcessId(rng.gen_range(5));
        if cluster.process_may_issue(p) {
            let mut client = cluster.client(p);
            let ticket = client.issue(*is_insert, payload.clone()).unwrap();
            if *is_insert {
                issued.insert(ticket.request_id(), payload.clone());
            }
        }
        if step == join_at {
            cluster.join(None).unwrap();
        }
        if step == leave_at {
            let _ = (0..5u64).map(ProcessId).find(|&p| cluster.leave(p).is_ok());
        }
        if step % 2 == 0 {
            cluster.run_round();
        }
    }
    cluster.run_until_all_complete(60_000).unwrap();
    cluster.run_rounds(60);
    (issued, cluster.into_history().into_records())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary `Vec<u8>` payloads survive join/leave churn under shuffled
    /// reordering delivery: every request completes exactly once, every
    /// returned element is returned exactly once, and every dequeue hands
    /// back the byte-identical payload its source enqueue inserted.
    #[test]
    fn prop_byte_payloads_round_trip_exactly_once(
        seed in 0u64..1_000,
        ops in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..24)),
            30..60,
        ),
        join_at in 5usize..20,
        leave_at in 25usize..50,
        max_delay in 2u64..5,
    ) {
        let (issued, records) = run_bytes_workload(seed, &ops, join_at, leave_at, max_delay);

        // Exactly once, no duplicates.
        let mut seen = HashSet::new();
        for r in &records {
            prop_assert!(seen.insert(r.id), "request {} completed twice", r.id);
        }
        let mut returned = HashSet::new();
        for r in &records {
            if let skueue_verify::OpResult::Returned(source) = r.result {
                prop_assert!(
                    returned.insert(source),
                    "element of {source} was returned twice"
                );
                // Byte-identical round-trip against the issue-side ledger
                // (independent of the checker's own payload rule).
                let sent = issued.get(&source).expect("source enqueue was issued");
                prop_assert_eq!(
                    &r.value, sent,
                    "payload of {} mutated in transit", source
                );
            }
        }

        // The checker agrees (its payload round-trip rule re-checks the
        // matched pairs from the history alone).
        let history = skueue_verify::History::from_records(records);
        prop_assert!(check_queue(&history).is_consistent());
    }
}

// ---------------------------------------------------------------------------
// 3. String jobs through a sharded queue, end to end.
// ---------------------------------------------------------------------------

#[test]
fn string_payloads_flow_through_a_sharded_queue() {
    let mut cluster = Skueue::<String>::builder()
        .processes(16)
        .shards(4)
        .seed(7)
        .build()
        .unwrap();
    let puts: Vec<OpTicket> = (0..32u64)
        .map(|i| {
            cluster
                .client(ProcessId(i % 16))
                .enqueue(format!("job-{i:04}"))
                .unwrap()
        })
        .collect();
    cluster.run_until_done(&puts, 5_000).unwrap();

    // One dequeue per enqueuing process drains each shard lane exactly.
    let gets: Vec<OpTicket> = (0..32u64)
        .map(|i| cluster.client(ProcessId(i % 16)).dequeue().unwrap())
        .collect();
    let outcomes = cluster.run_until_done(&gets, 5_000).unwrap();

    // A sharded queue is S FIFO lanes with lane selection by process: every
    // dequeue must return a job, and the multiset of returned jobs is
    // exactly the multiset enqueued.
    let mut got: Vec<String> = outcomes
        .iter()
        .map(|o| o.value().expect("every lane held a job"))
        .collect();
    got.sort();
    let want: Vec<String> = (0..32u64).map(|i| format!("job-{i:04}")).collect();
    assert_eq!(got, want, "every job string must round-trip exactly once");

    // Ticket outcomes expose the payload by borrow too (no clone needed).
    assert!(outcomes
        .iter()
        .all(|o| o.payload().is_some_and(|s| s.starts_with("job-"))));

    check_queue_sharded(cluster.history(), &cluster.shard_map()).assert_consistent();
}

#[test]
fn string_payload_stack_pops_lifo() {
    let mut cluster = Skueue::<String>::builder()
        .processes(4)
        .stack()
        .seed(3)
        .build()
        .unwrap();
    for i in 0..6u64 {
        let push = cluster
            .client(ProcessId(0))
            .push(format!("undo-{i}"))
            .unwrap();
        cluster.run_until_done(&[push], 2_000).unwrap();
    }
    for i in (0..6u64).rev() {
        let pop = cluster.client(ProcessId(1)).pop().unwrap();
        let outcome = cluster.run_until_done(&[pop], 2_000).unwrap().remove(0);
        assert_eq!(
            outcome.value().as_deref(),
            Some(format!("undo-{i}").as_str())
        );
    }
    check_stack(cluster.history()).assert_consistent();
}
