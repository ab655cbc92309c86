//! Outside-in layer probes on fixed inputs: route walks over the overlay,
//! `NodeStore` operations, and the wire codec and framing of representative
//! `NetFrame`s.  They time calls into each crate's public functions, so
//! they run the same on every workload.

use std::hint::black_box;
use std::time::Instant;

use skueue::core::messages::{DhtReplyItem, PutMeta, RoutedDhtOp};
use skueue::core::{Batch, BatchOp, DhtOp, SkueueMsg};
use skueue::dht::{Element, NodeStore, StoredEntry};
use skueue::net::codec::{from_bytes, to_bytes};
use skueue::net::frame::{read_frame, write_frame};
use skueue::net::NetFrame;
use skueue::overlay::{
    recommended_bit_budget, route_step, Label, RouteAction, RouteProgress, Topology, VKind,
    VirtualId,
};
use skueue::prelude::*;
use skueue::verify::{OpRecord, OpResult, OrderKey};

use crate::sim::Shape;
use crate::spans::Spans;
use crate::stats::nearest_rank;

/// Random `(start, key)` route walks sampled.
const ROUTE_SAMPLES: usize = 20_000;

/// Hop counts and time per hop of random route walks over the static
/// topology of `steady` (its n, the default hash seed).
fn routes(seed: u64) -> (Vec<u32>, f64) {
    let n = Shape::steady().processes;
    let hasher = SkueueCluster::<u64>::builder()
        .processes(n)
        .protocol_config()
        .hasher();
    let processes: Vec<ProcessId> = (0..n as u64).map(ProcessId).collect();
    let topology = Topology::build(&processes, hasher).expect("non-empty process set");
    let node_of = |v: VirtualId| NodeId(v.process.raw() * 3 + v.kind.index() as u64);
    let vid_of =
        |n: NodeId| VirtualId::new(ProcessId(n.0 / 3), VKind::from_index((n.0 % 3) as usize));
    let budget = recommended_bit_budget(n);
    let mut rng = SimRng::new(seed ^ 0x7007);
    let mut hops = Vec::with_capacity(ROUTE_SAMPLES);
    let mut steps = 0u64;
    let t = Instant::now();
    for _ in 0..ROUTE_SAMPLES {
        let mut current = topology.at_rank(rng.choose_index(topology.len())).vid;
        let mut progress = RouteProgress::new(Label::from_raw(rng.next_u64()), budget);
        loop {
            let view = topology.local_view(current, &node_of).expect("member");
            steps += 1;
            match route_step(&view, &mut progress) {
                RouteAction::Deliver => break,
                RouteAction::Forward(next) => {
                    progress.hops += 1;
                    current = vid_of(next);
                }
            }
        }
        hops.push(progress.hops);
    }
    let ns_per_step = t.elapsed().as_nanos() as f64 / steps as f64;
    hops.sort_unstable();
    (hops, ns_per_step)
}

/// Nanoseconds per `NodeStore` operation: `put` then `get_queue` of 1000
/// consecutive positions, repeated.
fn store_op_ns() -> f64 {
    let hasher = SkueueCluster::<u64>::builder()
        .processes(1)
        .protocol_config()
        .hasher();
    let entries: Vec<StoredEntry<u64>> = (0..1000u64)
        .map(|p| {
            StoredEntry::queue(
                p,
                hasher.position_key(p),
                Element::new(RequestId::new(ProcessId(0), p), p),
            )
        })
        .collect();
    let mut ops = 0u64;
    let t = Instant::now();
    while ops < 2_000_000 {
        let mut store = NodeStore::new();
        for e in &entries {
            black_box(store.put(e.clone()));
        }
        for p in 0..1000u64 {
            black_box(store.get_queue(p, RequestId::new(ProcessId(1), p), NodeId(0)));
        }
        ops += 2000;
    }
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// Representative frames: a batched DHT hop, a reply batch, an aggregation
/// batch, an ingress inject and a completion record.
fn sample_frames() -> Vec<NetFrame<u64>> {
    let hasher = SkueueCluster::<u64>::builder()
        .processes(1)
        .protocol_config()
        .hasher();
    let entry = |p: u64| {
        StoredEntry::queue(
            p,
            hasher.position_key(p),
            Element::new(RequestId::new(ProcessId(p % 7), p), 1000 + p),
        )
    };
    let ops = (0..8u64)
        .map(|p| RoutedDhtOp {
            op: Box::new(DhtOp::Put {
                entry: entry(p),
                meta: PutMeta {
                    issued_round: 17,
                    order: p,
                    wave: 3,
                    needs_ack: false,
                    issuer: NodeId(p),
                },
            }),
            progress: RouteProgress::new(hasher.position_key(p), 10),
        })
        .collect();
    let replies = (0..8u64)
        .map(|p| DhtReplyItem {
            request: RequestId::new(ProcessId(p), p),
            entry: entry(p),
        })
        .collect();
    let mut batch = Batch::empty();
    for i in 0..16 {
        batch.push_op(if i % 2 == 0 {
            BatchOp::Enqueue
        } else {
            BatchOp::Dequeue
        });
    }
    let proto = |msg| NetFrame::Proto {
        from: NodeId(4),
        to: NodeId(9),
        msg,
    };
    vec![
        proto(SkueueMsg::DhtBatch { ops }),
        proto(SkueueMsg::DhtReplyBatch { replies }),
        proto(SkueueMsg::Aggregate {
            child: NodeId(5),
            epoch: 12,
            batch,
        }),
        NetFrame::Inject {
            id: RequestId::new(ProcessId(3), 99),
            insert: true,
            value: 42,
        },
        NetFrame::Completion {
            record: OpRecord {
                id: RequestId::new(ProcessId(3), 99),
                kind: OpKind::Dequeue,
                value: 42,
                result: OpResult::Returned(RequestId::new(ProcessId(2), 7)),
                order: OrderKey::sharded(4, 1, 17, ProcessId(3)),
                issued_round: 100,
                completed_round: 160,
            },
        },
    ]
}

/// `(encode ns, decode ns, bytes, frame round trip ns)` per frame.
fn codec() -> (f64, f64, f64, f64) {
    let frames = sample_frames();
    let encoded: Vec<Vec<u8>> = frames.iter().map(to_bytes).collect();
    for (frame, bytes) in frames.iter().zip(&encoded) {
        let back: NetFrame<u64> = from_bytes(bytes).expect("codec round trip");
        assert_eq!(&back, frame, "codec round trip changed a frame");
    }
    let bytes = encoded.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;
    let reps = 20_000u64;
    let per_frame =
        |t: Instant| t.elapsed().as_nanos() as f64 / (reps * frames.len() as u64) as f64;

    let t = Instant::now();
    for _ in 0..reps {
        for f in &frames {
            black_box(to_bytes(black_box(f)));
        }
    }
    let encode = per_frame(t);

    let t = Instant::now();
    for _ in 0..reps {
        for b in &encoded {
            black_box(from_bytes::<NetFrame<u64>>(black_box(b)).expect("decodes"));
        }
    }
    let decode = per_frame(t);

    let mut wire = Vec::with_capacity(4096);
    let t = Instant::now();
    for _ in 0..reps {
        for f in &frames {
            wire.clear();
            write_frame(&mut wire, f).expect("in-memory write");
            let mut reader = wire.as_slice();
            black_box(read_frame::<NetFrame<u64>, _>(&mut reader).expect("in-memory read"));
        }
    }
    let roundtrip = per_frame(t);
    (encode, decode, bytes, roundtrip)
}

/// Runs every probe and records its per-layer metrics.
pub fn report(seed: u64, report: &mut crate::Report, spans: &mut Spans) {
    let span = spans.begin("probe.routes", "overlay", 1);
    let (hops, ns_per_step) = routes(seed);
    spans.end(span);
    let pct = |q: f64| nearest_rank(&hops, q).unwrap_or(0) as f64;
    report.layer("overlay.route_hops_p50", pct(0.50));
    report.layer("overlay.route_hops_p999", pct(0.999));
    report.layer("overlay.route_hops_max", pct(1.0));
    report.layer("overlay.route_step_ns", ns_per_step);

    let span = spans.begin("probe.store", "dht", 1);
    report.layer("dht.store_op_ns", store_op_ns());
    spans.end(span);

    let span = spans.begin("probe.codec", "net", 1);
    let (encode, decode, bytes, roundtrip) = codec();
    spans.end(span);
    report.layer("net.encode_ns", encode);
    report.layer("net.decode_ns", decode);
    report.layer("net.bytes_per_msg", bytes);
    report.layer("net.frame_roundtrip_ns", roundtrip);
}
