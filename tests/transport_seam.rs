//! Regression for the transport seam extraction.
//!
//! The lanes' delivery machinery (delay RNG, sequence counter, delivery
//! wheel) was moved out of the scheduler into [`skueue_sim::SimTransport`].
//! The extraction must be invisible: every golden history captured *before*
//! the move has to come out bit-identical *through* it, on both execution
//! backends.
//!
//! (The network side of the seam is covered by `tests/net_transport.rs`,
//! which verifies real-transport histories a posteriori with the sharded
//! checker — byte-identity is a simulation-only property.)

use skueue::prelude::*;

/// FNV-1a over every field of every record (same fingerprint as
/// `tests/generic_payloads.rs` — the format is pinned there).
fn fingerprint(records: &[skueue::verify::OpRecord<u64>]) -> u64 {
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
            skueue::verify::OpResult::Enqueued => mix(3),
            skueue::verify::OpResult::Empty => mix(4),
            skueue::verify::OpResult::Returned(src) => {
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

/// The determinism suite's mixed workload with churn, identical to
/// `tests/generic_payloads.rs::run_golden_workload`.
fn run_golden_workload(
    seed: u64,
    asynchronous: bool,
    shards: usize,
    threads: usize,
) -> Vec<skueue::verify::OpRecord<u64>> {
    let mut builder = Skueue::<u64>::builder()
        .processes(6)
        .seed(seed)
        .shards(shards);
    if asynchronous {
        builder = builder.asynchronous(4);
    }
    if threads > 1 {
        builder = builder.threads(threads);
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

/// `(seed, asynchronous, shards, record count, fingerprint)` — the PR-4
/// goldens, re-pinned here against the seam refactor specifically.
/// Same values as `tests/generic_payloads.rs` (synchronous entries
/// re-pinned for same-round sibling delivery).
const GOLDEN: [(u64, bool, usize, usize, u64); 4] = [
    (1, false, 1, 79, 0x8510_f386_f821_43bc),
    (42, false, 1, 76, 0x97aa_6c46_ca66_e840),
    (7, true, 1, 78, 0x7112_7a98_aaa6_3df0),
    (5, false, 2, 74, 0x165e_9477_79b0_6b4f),
];

#[test]
fn sim_histories_survive_the_transport_seam_bit_identically() {
    for (seed, asynchronous, shards, len, fp) in GOLDEN {
        let records = run_golden_workload(seed, asynchronous, shards, 1);
        assert_eq!(records.len(), len, "record count drifted (seed {seed})");
        assert_eq!(
            fingerprint(&records),
            fp,
            "serial-backend history drifted across the seam (seed {seed}, async {asynchronous}, S={shards})"
        );
    }
}

#[test]
fn parallel_backend_histories_survive_the_seam_too() {
    // The sharded golden is the one whose lanes actually run on workers.
    let (seed, asynchronous, shards, len, fp) = GOLDEN[3];
    for threads in [2, 4] {
        let records = run_golden_workload(seed, asynchronous, shards, threads);
        assert_eq!(records.len(), len);
        assert_eq!(
            fingerprint(&records),
            fp,
            "parallel-backend history drifted across the seam (T={threads})"
        );
    }
}
