//! The `skueue-node` daemon: hosts a slice of the cluster's processes in one
//! [`Simulation`] and speaks the frame protocol with its peers.
//!
//! # Thread anatomy
//!
//! ```text
//!            TCP accept                 frames                egress frames
//!  listener ───────────► reader (1/conn) ────► host (1) ──────────────────► peer daemons
//!                                                 │
//!                                                 └── completions → subscribed ingress conns
//! ```
//!
//! * One **listener** thread accepts connections; each connection gets a
//!   **reader** thread that decodes frames and forwards them to the host.
//! * The **host** thread (the caller of [`run`]) owns everything else: a
//!   [`Simulation`] holding every virtual node of this daemon's processes
//!   under its cluster-wide id (`3·pid + kind`, see [`crate::spec`]), one
//!   outgoing TCP connection per peer daemon (dialled on demand, carrying a
//!   [`NetFrame::Hello`] preamble), the hosted-process table and the
//!   completion-subscribed connections.
//!
//! The host loop applies what the readers delivered — a `Proto` frame
//! becomes [`Simulation::inject`], client operations and churn become
//! driver-side calls on the nodes, as in `SkueueCluster` — then runs one
//! synchronous round and writes its egress ([`Simulation::drain_egress`]) to
//! the peers as `Proto` frames and its completions to the subscribers.
//! While messages are in flight the next round runs at once; otherwise the
//! host waits up to one tick for the next frame.
//!
//! Placement is static (process `p` lives on daemon `p mod d`), so a `JOIN`
//! adds the three nodes locally and the join protocol does the rest over the
//! wire.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use skueue_core::{BatchOp, Payload, ProtocolConfig, SkueueMsg, SkueueNode};
use skueue_overlay::VirtualId;
use skueue_shard::ShardId;
use skueue_sim::ids::{NodeId, ProcessId, RequestId};
use skueue_sim::Simulation;
use skueue_verify::OpRecord;

use crate::codec::Wire;
use crate::frame::{read_frame, write_frame, NetFrame};
use crate::spec::{node_of, ClusterSpec};

/// A decoded frame and the connection it arrived on (where replies go).
type Event<T> = (NetFrame<T>, ConnWriter);

/// The write half of an accepted connection, shareable across threads.
/// `write_frame` issues a single `write_all` per frame, so the mutex is the
/// only interleaving guard needed.
#[derive(Debug, Clone)]
struct ConnWriter {
    id: u64,
    stream: Arc<Mutex<TcpStream>>,
}

impl ConnWriter {
    fn write<T: Wire>(&self, frame: &NetFrame<T>) -> io::Result<()> {
        let mut guard = self.stream.lock().expect("writer mutex poisoned");
        write_frame(&mut *guard, frame)
    }
}

/// A running daemon spawned in-process (used by tests and the load
/// generator's self-contained mode).
#[derive(Debug)]
pub struct DaemonHandle {
    thread: JoinHandle<io::Result<()>>,
}

impl DaemonHandle {
    /// Waits for the daemon to exit (after a [`NetFrame::Shutdown`]).
    pub fn join(self) -> io::Result<()> {
        self.thread.join().expect("daemon thread panicked")
    }
}

/// Binds the daemon's listen address and runs until shutdown.  This is the
/// body of the `skueue-node` binary.
pub fn run<T: Payload + Wire>(spec: &ClusterSpec, index: usize) -> io::Result<()> {
    let listener = TcpListener::bind(&spec.daemons[index])?;
    run_with_listener::<T>(spec, index, listener)
}

/// Spawns a daemon on its own thread with a pre-bound listener (lets tests
/// bind ephemeral ports before constructing the spec).
pub fn spawn<T: Payload + Wire>(
    spec: ClusterSpec,
    index: usize,
    listener: TcpListener,
) -> DaemonHandle {
    let thread = thread::spawn(move || run_with_listener::<T>(&spec, index, listener));
    DaemonHandle { thread }
}

/// Runs the daemon's host loop on the calling thread until a
/// [`NetFrame::Shutdown`] arrives, then tears every helper thread down.
pub fn run_with_listener<T: Payload + Wire>(
    spec: &ClusterSpec,
    index: usize,
    listener: TcpListener,
) -> io::Result<()> {
    let local_addr = listener.local_addr()?;
    let (tx, rx) = channel::<Event<T>>();
    let shutting_down = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
    let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let listener_thread = {
        let shutting_down = Arc::clone(&shutting_down);
        let conns = Arc::clone(&conns);
        let readers = Arc::clone(&readers);
        thread::spawn(move || {
            let mut next_conn_id = 0u64;
            loop {
                let stream = match listener.accept() {
                    Ok((s, _)) => s,
                    Err(_) => break,
                };
                if shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                if let Ok(raw) = stream.try_clone() {
                    conns.lock().expect("conns mutex").push(raw);
                }
                let writer = ConnWriter {
                    id: next_conn_id,
                    stream: Arc::new(Mutex::new(write_half)),
                };
                next_conn_id += 1;
                let tx = tx.clone();
                let handle = thread::spawn(move || reader_loop(stream, writer, tx));
                readers.lock().expect("readers mutex").push(handle);
            }
        })
    };

    let mut host = Host::<T>::new(spec, index);
    host.run(&rx, Duration::from_millis(spec.tick_ms));

    // Teardown: unblock the listener, close every connection so reader
    // threads see EOF, and join them all — no leaked threads or sockets.
    shutting_down.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(local_addr); // unblocks `accept`
    let _ = listener_thread.join();
    for conn in conns.lock().expect("conns mutex").drain(..) {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    for peer in host.peers.iter().flatten() {
        let _ = peer.shutdown(std::net::Shutdown::Both);
    }
    let handles: Vec<_> = readers.lock().expect("readers mutex").drain(..).collect();
    for handle in handles {
        let _ = handle.join();
    }
    Ok(())
}

/// Everything the host thread owns.
struct Host<'a, T: Payload> {
    spec: &'a ClusterSpec,
    index: usize,
    /// Protocol configuration per shard (its distance-halving bit budget).
    cfgs: Vec<ProtocolConfig>,
    /// Every hosted virtual node, under its cluster-wide id, in one lane.
    sim: Simulation<SkueueNode<T>>,
    /// Hosted processes: `(pid, [left, middle, right])`.
    procs: Vec<(u64, [NodeId; 3])>,
    /// One outgoing connection per peer daemon (`None` until dialled).
    peers: Vec<Option<TcpStream>>,
    /// Completion-subscribed connections, by connection id.
    sinks: HashMap<u64, ConnWriter>,
    /// Middle nodes given an operation since the last round: local combining
    /// can complete a record at issue, and the node need not be visited.
    touched: Vec<NodeId>,
    /// Scratch for the completion sweep.
    completions: Vec<OpRecord<T>>,
}

impl<'a, T: Payload + Wire> Host<'a, T> {
    /// A host holding this daemon's slice of the initial membership.
    fn new(spec: &'a ClusterSpec, index: usize) -> Self {
        let (initial, budgets) = spec.initial_membership();
        let cfg = spec.protocol_config();
        let mut host = Host {
            spec,
            index,
            cfgs: budgets
                .into_iter()
                .map(|bit_budget| ProtocolConfig { bit_budget, ..cfg })
                .collect(),
            sim: Simulation::synchronous(spec.hash_seed ^ index as u64),
            procs: Vec::new(),
            peers: (0..spec.num_daemons()).map(|_| None).collect(),
            sinks: HashMap::new(),
            touched: Vec::new(),
            completions: Vec::new(),
        };
        for p in initial
            .into_iter()
            .filter(|p| spec.daemon_of(p.pid) == index)
        {
            let cfg = host.cfgs[p.shard as usize];
            let nodes = p.views.map(|(vid, view, is_anchor)| {
                (vid, SkueueNode::new(cfg, p.shard, view, is_anchor))
            });
            host.add_process(p.pid, p.shard, nodes);
        }
        host
    }

    /// Registers a process's three nodes under their cluster-wide ids.
    fn add_process(
        &mut self,
        pid: ProcessId,
        shard: ShardId,
        nodes: [(VirtualId, SkueueNode<T>); 3],
    ) {
        let ids = nodes.map(|(vid, mut node)| {
            let id = node_of(vid);
            node.trace_recorder_mut().attach(id.0, shard);
            self.sim.add_node_at(0, id, node);
            id
        });
        self.procs.push((pid.0, ids));
    }

    /// Applies frames and runs rounds until a [`NetFrame::Shutdown`].
    fn run(&mut self, rx: &Receiver<Event<T>>, tick: Duration) {
        loop {
            let mut next = if self.sim.in_flight() > 0 {
                rx.try_recv().ok()
            } else {
                match rx.recv_timeout(tick) {
                    Ok(event) => Some(event),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            };
            while let Some((frame, writer)) = next {
                if !self.apply(frame, &writer) {
                    return;
                }
                next = rx.try_recv().ok();
            }
            self.round();
        }
    }

    /// Applies one frame and answers control frames on `writer`.  Returns
    /// `false` on [`NetFrame::Shutdown`].
    fn apply(&mut self, frame: NetFrame<T>, writer: &ConnWriter) -> bool {
        let reply = match frame {
            NetFrame::Proto { from, to, msg } => {
                if self.sim.inject(from, to, msg).is_err() {
                    eprintln!(
                        "skueue-node[{}]: dropping message for unknown local node {to:?}",
                        self.index
                    );
                }
                return true;
            }
            NetFrame::Inject { id, insert, value } => {
                // Fire-and-forget: the completion stream is the reply.
                self.inject(id, insert, value);
                return true;
            }
            NetFrame::Subscribe => {
                self.sinks.insert(writer.id, writer.clone());
                NetFrame::Ok
            }
            NetFrame::Join { pid, bootstrap } => self.join(pid, bootstrap),
            NetFrame::Leave { pid } => self.leave(pid),
            NetFrame::Status => NetFrame::StatusReply {
                daemon: self.index as u32,
                processes: self
                    .procs
                    .iter()
                    .map(|&(pid, ids)| {
                        (
                            pid,
                            self.all(ids, SkueueNode::is_integrated),
                            self.all(ids, SkueueNode::has_left),
                        )
                    })
                    .collect(),
            },
            NetFrame::Shutdown => {
                let _ = writer.write(&NetFrame::<T>::Ok);
                return false;
            }
            other => NetFrame::Err(format!("unexpected control frame {other:?}")),
        };
        let _ = writer.write(&reply);
        true
    }

    /// Whether `f` holds for all three nodes of a process.
    fn all(&self, ids: [NodeId; 3], f: fn(&SkueueNode<T>) -> bool) -> bool {
        ids.iter().all(|&id| self.sim.node(id).is_some_and(f))
    }

    /// Issues a client operation at its process's middle node.
    fn inject(&mut self, id: RequestId, insert: bool, value: T) {
        let target = node_of(VirtualId::middle(id.origin));
        let round = self.sim.round();
        match self.sim.node_mut(target) {
            Some(node) if node.is_integrated() => {
                let kind = if insert {
                    BatchOp::Enqueue
                } else {
                    BatchOp::Dequeue
                };
                node.generate_op(id, kind, value, round);
                // New own work re-arms the node's wave timeout.
                let _ = self.sim.refresh_timeout_interest(target);
                self.touched.push(target);
            }
            _ => eprintln!(
                "skueue-node[{}]: dropping inject for process {} (not hosted or not integrated)",
                self.index, id.origin.0
            ),
        }
    }

    /// Adds a joining process; the join protocol integrates it.
    fn join(&mut self, pid: ProcessId, bootstrap: NodeId) -> NetFrame<T> {
        if self.spec.daemon_of(pid) != self.index {
            return NetFrame::Err(format!("process {} is not placed here", pid.0));
        }
        if self.procs.iter().any(|(p, _)| *p == pid.0) {
            return NetFrame::Err(format!("process {} already hosted", pid.0));
        }
        let shard = self.spec.shard_of(pid);
        let cfg = self.cfgs[shard as usize];
        let nodes = self.spec.joining_views(pid).map(|(vid, view)| {
            let mut node = SkueueNode::new_joining(cfg, shard, view);
            node.set_bootstrap(bootstrap);
            (vid, node)
        });
        self.add_process(pid, shard, nodes);
        NetFrame::Ok
    }

    /// Asks a hosted process to leave the overlay.
    fn leave(&mut self, pid: ProcessId) -> NetFrame<T> {
        let Some(&(_, ids)) = self.procs.iter().find(|(p, _)| *p == pid.0) else {
            return NetFrame::Err(format!("process {} not hosted here", pid.0));
        };
        for id in ids {
            if let Some(node) = self.sim.node_mut(id) {
                node.request_leave();
            }
            // The leave wish re-arms the node's timeout.
            let _ = self.sim.refresh_timeout_interest(id);
        }
        NetFrame::Ok
    }

    /// Runs one round, then writes its egress to the peers and its
    /// completions to the subscribers.
    fn round(&mut self) {
        self.sim.run_round();
        self.sim.drain_egress(|from, to, msg| {
            send_to_peer(self.spec, self.index, &mut self.peers, from, to, msg);
        });
        // Only nodes visited this round, or given an operation since the
        // last one, can hold completed records.
        let visited = self.sim.visited_last_round().iter();
        self.touched.extend(visited.map(|&id| NodeId(id as u64)));
        for id in self.touched.drain(..) {
            if let Some(node) = self.sim.node_mut(id) {
                if node.has_completed() {
                    node.drain_completed_into(&mut self.completions);
                }
            }
        }
        for record in self.completions.drain(..) {
            let frame = NetFrame::Completion { record };
            self.sinks.retain(|_, sink| sink.write(&frame).is_ok());
        }
    }
}

/// Writes one protocol message to the daemon hosting its destination.
fn send_to_peer<T: Wire>(
    spec: &ClusterSpec,
    index: usize,
    peers: &mut [Option<TcpStream>],
    from: NodeId,
    to: NodeId,
    msg: SkueueMsg<T>,
) {
    let daemon = spec.daemon_of_node(to);
    if daemon == index {
        // Placed here but never joined: nobody can receive it.
        eprintln!("skueue-node[{index}]: dropping message for unknown local node {to:?}");
        return;
    }
    let frame = NetFrame::Proto { from, to, msg };
    // One dial attempt cycle, then one redial after a stale-connection write
    // failure (the peer may have restarted between frames).
    for _ in 0..2 {
        if peers[daemon].is_none() {
            peers[daemon] = dial_peer(spec, index, daemon);
        }
        match peers[daemon].as_mut() {
            Some(stream) => {
                if write_frame(stream, &frame).is_ok() {
                    return;
                }
                peers[daemon] = None;
            }
            None => break,
        }
    }
    eprintln!("skueue-node[{index}]: dropping frame for unreachable daemon {daemon}");
}

/// Dials a peer daemon, retrying for a few seconds (daemons of one cluster
/// start concurrently), and sends the identifying preamble.
fn dial_peer(spec: &ClusterSpec, index: usize, daemon: usize) -> Option<TcpStream> {
    for _ in 0..250 {
        if let Ok(mut stream) = TcpStream::connect(&spec.daemons[daemon]) {
            let _ = stream.set_nodelay(true);
            // `Hello` carries no payload-typed field, so any `T` encodes it
            // identically; `u64` keeps this helper non-generic.
            let hello = NetFrame::<u64>::Hello { from: index as u32 };
            if write_frame(&mut stream, &hello).is_ok() {
                return Some(stream);
            }
        }
        thread::sleep(Duration::from_millis(20));
    }
    None
}

/// One connection's reader: decodes frames and forwards them to the host.
/// Exits on EOF, on a decode error, or when the host has gone away.
fn reader_loop<T: Payload + Wire>(stream: TcpStream, writer: ConnWriter, tx: Sender<Event<T>>) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    while let Ok(Some(frame)) = read_frame::<NetFrame<T>, _>(&mut reader) {
        // A peer's preamble: proto frames carry full addressing, so the
        // daemon index is informational only.
        if matches!(frame, NetFrame::Hello { .. }) {
            continue;
        }
        if tx.send((frame, writer.clone())).is_err() {
            break;
        }
    }
}
