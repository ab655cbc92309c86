//! Cluster specification shared by every service binary.
//!
//! A deployment is described by a handful of values — the daemon addresses,
//! the initial process count, the shard count and the hash seed — that every
//! binary (`skueue-node`, `skueue-ctl`, `skueue-ingress`, `skueue-load`) must
//! agree on.  [`ClusterSpec`] centralises them together with the placement
//! rules that make the topology computable without coordination:
//!
//! * process `p` emulates virtual nodes `3p`, `3p + 1`, `3p + 2` (Left,
//!   Middle, Right) — the same dense id scheme the simulation uses, so node
//!   ids are globally derivable from process ids,
//! * process `p` is hosted by daemon `p mod d` for `d` daemons, so *daemon*
//!   placement is globally derivable too — a `JOIN` needs no id negotiation.

use std::collections::BTreeMap;

use skueue_core::ProtocolConfig;
use skueue_overlay::{Label, LocalView, NeighborInfo, Topology, VKind, VirtualId};
use skueue_shard::{ShardId, ShardMap, ShardRouter};
use skueue_sim::ids::{NodeId, ProcessId};

/// Default tick of a daemon's host loop, in milliseconds.
pub const DEFAULT_TICK_MS: u64 = 2;

/// Everything the service binaries must agree on to form one cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Listen addresses of the node daemons, in daemon-index order.
    pub daemons: Vec<String>,
    /// Number of initial (pre-joined) processes.
    pub initial: u64,
    /// Number of anchor shards.
    pub shards: usize,
    /// Seed of the publicly known label hash function.
    pub hash_seed: u64,
    /// Tick of the host loop, in milliseconds.  A daemon runs one
    /// synchronous round (deliver pending messages, then fire `TIMEOUT`)
    /// as soon as frames arrive or messages are in flight, and at least
    /// once per tick otherwise, so nodes that want a timeout get one.
    pub tick_ms: u64,
}

impl ClusterSpec {
    /// A localhost spec: `n` daemons on consecutive ports starting at
    /// `base_port`, hosting `initial` processes across `shards` shards.
    pub fn localhost(n: usize, base_port: u16, initial: u64, shards: usize) -> Self {
        ClusterSpec {
            daemons: (0..n)
                .map(|i| format!("127.0.0.1:{}", base_port + i as u16))
                .collect(),
            initial,
            shards,
            hash_seed: ProtocolConfig::queue().hash_seed,
            tick_ms: DEFAULT_TICK_MS,
        }
    }

    /// Number of daemons in the cluster.
    pub fn num_daemons(&self) -> usize {
        self.daemons.len()
    }

    /// The daemon hosting process `pid` (static modular placement).
    pub fn daemon_of(&self, pid: ProcessId) -> usize {
        (pid.0 % self.daemons.len() as u64) as usize
    }

    /// The daemon hosting virtual node `id` (nodes live with their process).
    pub fn daemon_of_node(&self, id: NodeId) -> usize {
        self.daemon_of(ProcessId(id.0 / 3))
    }

    /// The protocol configuration every hosted node runs with.
    ///
    /// TCP preserves per-connection order and both local delivery paths are
    /// queues, so every (sender, receiver) channel is FIFO — the aggregate
    /// credit can stay relaxed exactly as in the synchronous simulation.
    pub fn protocol_config(&self) -> ProtocolConfig {
        ProtocolConfig::queue()
            .with_shards(self.shards)
            .with_hash_seed(self.hash_seed)
    }

    /// The shard router for this spec (deterministic process → shard map).
    pub fn router(&self) -> ShardRouter {
        ShardRouter::new(self.shard_map())
    }

    /// The shard map the verifier consumes.
    pub fn shard_map(&self) -> ShardMap {
        let effective = self.protocol_config().effective_shards();
        ShardMap::new(effective as u32, self.hash_seed)
    }

    /// Builds the initial membership: for every initial process, its shard,
    /// its three local views and whether it hosts the shard anchor — the same
    /// construction the simulation cluster performs, so a real deployment
    /// and a simulated one agree on the starting topology.
    ///
    /// Returns one [`InitialProcess`] per process, in process-id order, plus
    /// the per-shard distance-halving bit budgets.
    pub fn initial_membership(&self) -> (Vec<InitialProcess>, Vec<u32>) {
        let cfg = self.protocol_config();
        let hasher = cfg.hasher();
        let router = self.router();
        let shards = cfg.effective_shards();
        let mut groups: Vec<Vec<ProcessId>> = vec![Vec::new(); shards];
        for pid in (0..self.initial).map(ProcessId) {
            groups[router.route(pid) as usize].push(pid);
        }
        let topologies: Vec<Option<Topology>> = groups
            .iter()
            .map(|group| {
                (!group.is_empty())
                    .then(|| Topology::build(group, hasher).expect("dense non-empty process set"))
            })
            .collect();
        let budgets: Vec<u32> = groups
            .iter()
            .map(|group| {
                if cfg.bit_budget != 0 {
                    cfg.bit_budget
                } else {
                    skueue_overlay::recommended_bit_budget(group.len().max(1))
                }
            })
            .collect();

        let mut out = Vec::with_capacity(self.initial as usize);
        for pid in (0..self.initial).map(ProcessId) {
            let shard = router.route(pid);
            let topology = topologies[shard as usize]
                .as_ref()
                .expect("pid was grouped into this shard");
            let anchor_vid = topology.anchor();
            let mut views = Vec::with_capacity(3);
            for kind in VKind::ALL {
                let vid = VirtualId::new(pid, kind);
                let view = topology
                    .local_view(vid, &node_of)
                    .expect("vid from own topology");
                views.push((vid, view, vid == anchor_vid));
            }
            out.push(InitialProcess {
                pid,
                shard,
                views: views.try_into().expect("exactly three kinds"),
            });
        }
        (out, budgets)
    }

    /// The overlay view a *joining* process starts from: every pointer aimed
    /// at itself (the join protocol fills them in), ids derived from the
    /// dense scheme.  Mirrors the simulation cluster's join path.
    pub fn joining_views(&self, pid: ProcessId) -> [(VirtualId, LocalView); 3] {
        let hasher = self.protocol_config().hasher();
        let middle_label = self.hasher_label(&hasher, pid);
        let siblings: [NeighborInfo; 3] = [
            NeighborInfo::new(
                node_of(VirtualId::left(pid)),
                VirtualId::left(pid),
                VKind::Left.label_from_middle(middle_label),
            ),
            NeighborInfo::new(
                node_of(VirtualId::middle(pid)),
                VirtualId::middle(pid),
                middle_label,
            ),
            NeighborInfo::new(
                node_of(VirtualId::right(pid)),
                VirtualId::right(pid),
                VKind::Right.label_from_middle(middle_label),
            ),
        ];
        VKind::ALL.map(|kind| {
            let me = siblings[kind.index()];
            (
                VirtualId::new(pid, kind),
                LocalView {
                    me,
                    pred: me,
                    succ: me,
                    siblings,
                    middle_finger: None,
                },
            )
        })
    }

    /// The middle-node label of a process under this spec's hash seed.
    fn hasher_label(&self, hasher: &skueue_overlay::LabelHasher, pid: ProcessId) -> Label {
        hasher.process_label(pid)
    }

    /// The bootstrap node a joiner with id `pid` should contact: the middle
    /// node of the lowest-numbered *initial* process in the same shard.
    /// Initial processes never leave in the supported workloads, so this is
    /// always a valid integrated contact.
    pub fn bootstrap_for(&self, pid: ProcessId) -> Option<NodeId> {
        let router = self.router();
        let shard = router.route(pid);
        (0..self.initial)
            .map(ProcessId)
            .find(|&p| router.route(p) == shard)
            .map(|p| node_of(VirtualId::middle(p)))
    }

    /// The shard of process `pid`.
    pub fn shard_of(&self, pid: ProcessId) -> ShardId {
        self.router().route(pid)
    }
}

/// One initial process's construction recipe (see
/// [`ClusterSpec::initial_membership`]).
#[derive(Debug, Clone)]
pub struct InitialProcess {
    /// The process id.
    pub pid: ProcessId,
    /// Its anchor shard.
    pub shard: ShardId,
    /// `(vid, view, is_anchor)` for the three virtual nodes in
    /// Left/Middle/Right order.
    pub views: [(VirtualId, LocalView, bool); 3],
}

/// Dense virtual-node id assignment: process `p`'s nodes are `3p + kind`.
/// Identical to the simulation cluster's scheme, so histories and traces are
/// comparable across the two transports.
pub fn node_of(vid: VirtualId) -> NodeId {
    NodeId(vid.process.raw() * 3 + vid.kind.index() as u64)
}

/// Parses `--key value` style command-line arguments into a map, leaving
/// positional arguments (none of the binaries take any) as an error.
///
/// Shared by the four service binaries so their flag syntax stays uniform.
pub fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected positional argument `{arg}`"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{key} is missing its value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

/// Builds a [`ClusterSpec`] from parsed flags.  Recognised keys:
/// `--daemons a,b,c` (required), `--initial N` (default 3), `--shards S`
/// (default 1), `--hash-seed H` (default: the library default), and
/// `--tick-ms T` (default [`DEFAULT_TICK_MS`]).
pub fn spec_from_flags(flags: &BTreeMap<String, String>) -> Result<ClusterSpec, String> {
    let daemons: Vec<String> = flags
        .get("daemons")
        .ok_or("missing required flag --daemons a,b,c")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if daemons.is_empty() {
        return Err("--daemons must list at least one address".into());
    }
    let parse_u64 = |key: &str, default: u64| -> Result<u64, String> {
        match flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects a number")),
        }
    };
    let initial = parse_u64("initial", 3)?;
    if initial == 0 {
        return Err("--initial must be at least 1".into());
    }
    let shards = parse_u64("shards", 1)? as usize;
    let hash_seed = parse_u64("hash-seed", ProtocolConfig::queue().hash_seed)?;
    let tick_ms = parse_u64("tick-ms", DEFAULT_TICK_MS)?.max(1);
    Ok(ClusterSpec {
        daemons,
        initial,
        shards,
        hash_seed,
        tick_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_modular_and_dense() {
        let spec = ClusterSpec::localhost(3, 7100, 5, 2);
        assert_eq!(spec.daemon_of(ProcessId(0)), 0);
        assert_eq!(spec.daemon_of(ProcessId(4)), 1);
        assert_eq!(
            spec.daemon_of_node(NodeId(14)),
            spec.daemon_of(ProcessId(4))
        );
        assert_eq!(
            node_of(VirtualId::new(ProcessId(4), VKind::Right)),
            NodeId(14)
        );
    }

    #[test]
    fn initial_membership_matches_simulation_shape() {
        let spec = ClusterSpec::localhost(2, 7100, 5, 2);
        let (procs, budgets) = spec.initial_membership();
        assert_eq!(procs.len(), 5);
        assert_eq!(budgets.len(), 2);
        // Exactly one anchor per populated shard.
        let anchors: Vec<_> = procs
            .iter()
            .flat_map(|p| p.views.iter())
            .filter(|(_, _, a)| *a)
            .collect();
        assert_eq!(anchors.len(), 2);
        // Every view's `me` id follows the dense scheme.
        for p in &procs {
            for (vid, view, _) in &p.views {
                assert_eq!(view.me.node, node_of(*vid));
                assert_eq!(view.me.vid, *vid);
            }
        }
    }

    #[test]
    fn joiner_views_are_self_pointing() {
        let spec = ClusterSpec::localhost(2, 7100, 3, 1);
        let views = spec.joining_views(ProcessId(7));
        for (vid, view) in &views {
            assert_eq!(view.me.node, node_of(*vid));
            assert_eq!(view.pred, view.me);
            assert_eq!(view.succ, view.me);
            assert!(view.middle_finger.is_none());
        }
        assert!(spec.bootstrap_for(ProcessId(7)).is_some());
    }

    #[test]
    fn flags_parse_round_trips() {
        let args: Vec<String> = [
            "--daemons",
            "127.0.0.1:7100,127.0.0.1:7101",
            "--initial",
            "4",
            "--shards",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let flags = parse_flags(&args).unwrap();
        let spec = spec_from_flags(&flags).unwrap();
        assert_eq!(spec.num_daemons(), 2);
        assert_eq!(spec.initial, 4);
        assert_eq!(spec.shards, 2);
        assert!(parse_flags(&["oops".to_string()]).is_err());
        assert!(spec_from_flags(&BTreeMap::new()).is_err());
    }
}
