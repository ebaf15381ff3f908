//! Protocol fuzzing: arbitrary (including nonsensical) message sequences
//! delivered to a server must never panic, never violate the replica cap,
//! and never corrupt the Table-1 state invariants. Soft-state protocols
//! live off exactly this promise — any peer can send you anything stale.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use terradir_repro::namespace::{balanced_tree, NodeId, OwnerAssignment, ServerId};
use terradir_repro::protocol::{
    messages::{Message, ReplicaPayload},
    Config, Meta, NodeMap, Outgoing, QueryPacket, ServerState, StatelessContext,
};

const N_SERVERS: u32 = 6;
const N_NODES: u32 = 31; // balanced_tree(2, 4)

#[derive(Debug, Clone)]
enum FuzzOp {
    Query {
        origin: u32,
        target: u32,
        via: Option<u32>,
        prev: Option<u32>,
    },
    Result {
        target: u32,
        path_node: u32,
        path_host: u32,
    },
    Probe {
        from: u32,
        load: f64,
    },
    ProbeReply {
        from: u32,
        load: f64,
    },
    Replicate {
        from: u32,
        load: f64,
        node: u32,
        weight: f64,
    },
    Ack {
        from: u32,
        node: u32,
        shift: f64,
    },
    Deny {
        from: u32,
        load: f64,
    },
    MapUpdate {
        node: u32,
        host: u32,
    },
    NotHosting {
        node: u32,
        from: u32,
    },
    Busy {
        dur: f64,
    },
    Maintain,
    TriggerCheck,
}

fn arb_op() -> impl Strategy<Value = FuzzOp> {
    prop_oneof![
        (
            0..N_SERVERS,
            0..N_NODES,
            proptest::option::of(0..N_NODES),
            proptest::option::of(0..N_SERVERS)
        )
            .prop_map(|(origin, target, via, prev)| FuzzOp::Query {
                origin,
                target,
                via,
                prev
            }),
        (0..N_NODES, 0..N_NODES, 0..N_SERVERS).prop_map(|(target, path_node, path_host)| {
            FuzzOp::Result {
                target,
                path_node,
                path_host,
            }
        }),
        (0..N_SERVERS, 0.0f64..1.0).prop_map(|(from, load)| FuzzOp::Probe { from, load }),
        (0..N_SERVERS, 0.0f64..1.0).prop_map(|(from, load)| FuzzOp::ProbeReply { from, load }),
        (0..N_SERVERS, 0.0f64..1.0, 0..N_NODES, 0.0f64..10.0).prop_map(
            |(from, load, node, weight)| FuzzOp::Replicate {
                from,
                load,
                node,
                weight
            }
        ),
        (0..N_SERVERS, 0..N_NODES, 0.0f64..0.5).prop_map(|(from, node, shift)| FuzzOp::Ack {
            from,
            node,
            shift
        }),
        (0..N_SERVERS, 0.0f64..1.0).prop_map(|(from, load)| FuzzOp::Deny { from, load }),
        (0..N_NODES, 0..N_SERVERS).prop_map(|(node, host)| FuzzOp::MapUpdate { node, host }),
        (0..N_NODES, 0..N_SERVERS).prop_map(|(node, from)| FuzzOp::NotHosting { node, from }),
        (0.001f64..0.3).prop_map(|dur| FuzzOp::Busy { dur }),
        Just(FuzzOp::Maintain),
        Just(FuzzOp::TriggerCheck),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_message_storms_never_corrupt_state(
        ops in proptest::collection::vec(arb_op(), 1..120),
        seed in 0u64..1000,
    ) {
        let ns = balanced_tree(2, 4);
        let asg = OwnerAssignment::round_robin(&ns, N_SERVERS);
        let (fleet, _) = StatelessContext::new(ns, Config::paper_default(N_SERVERS), asg);
        let (ns, cfg, asg) = (fleet.namespace(), fleet.config(), fleet.assignment());
        let mut s = ServerState::new(ServerId(0), &fleet);
        let owned_before: Vec<NodeId> = {
            let mut v: Vec<NodeId> = s.owned_ids().collect();
            v.sort_unstable();
            v
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out: Vec<Outgoing> = Vec::new();
        let mut now = 0.0;
        for op in ops {
            now += 0.01;
            let msg = match op {
                FuzzOp::Query { origin, target, via, prev } => {
                    let mut p = QueryPacket::new(1, ServerId(origin), NodeId(target), now);
                    p.intended_via = via.map(NodeId);
                    p.prev_hop = prev.map(ServerId);
                    Some(Message::Query(p))
                }
                FuzzOp::Result { target, path_node, path_host } => {
                    let mut p = QueryPacket::new(2, ServerId(0), NodeId(target), now);
                    p.push_path(NodeId(path_node), NodeMap::singleton(ServerId(path_host)), 8);
                    Some(Message::QueryResult {
                        packet: p,
                        resolved_by: ServerId(1),
                        meta: Meta::new(),
                        children: vec![],
                    })
                }
                FuzzOp::Probe { from, load } => Some(Message::LoadProbe { from: ServerId(from), load }),
                FuzzOp::ProbeReply { from, load } => {
                    Some(Message::LoadProbeReply { from: ServerId(from), load })
                }
                FuzzOp::Replicate { from, load, node, weight } => Some(Message::ReplicateRequest {
                    from: ServerId(from),
                    sender_load: load,
                    replicas: vec![ReplicaPayload {
                        node: NodeId(node),
                        map: NodeMap::from_entries([ServerId(from), ServerId(0)]),
                        meta: Meta::new(),
                        neighbors: ns
                            .neighbors(NodeId(node))
                            .map(|nb| (nb, NodeMap::singleton(asg.owner(nb))))
                            .collect(),
                        weight,
                    }],
                }),
                FuzzOp::Ack { from, node, shift } => Some(Message::ReplicateAck {
                    from: ServerId(from),
                    installed: vec![NodeId(node)],
                    shift,
                }),
                FuzzOp::Deny { from, load } => {
                    Some(Message::ReplicateDeny { from: ServerId(from), load })
                }
                FuzzOp::MapUpdate { node, host } => Some(Message::MapUpdate {
                    node: NodeId(node),
                    map: NodeMap::singleton(ServerId(host)),
                }),
                FuzzOp::NotHosting { node, from } => Some(Message::NotHosting {
                    node: NodeId(node),
                    from: ServerId(from),
                }),
                FuzzOp::Busy { dur } => {
                    s.record_busy(now, dur);
                    None
                }
                FuzzOp::Maintain => {
                    s.maintenance(now, &mut out);
                    None
                }
                FuzzOp::TriggerCheck => {
                    s.maybe_start_session(now, &mut rng, &mut out);
                    None
                }
            };
            if let Some(msg) = msg {
                s.handle_message(now, msg, &mut rng, &mut out);
            }
            out.clear();

            // Invariants after every step:
            // 1. The replica cap holds.
            prop_assert!(s.replica_count() <= cfg.replica_cap(s.owned_count()));
            // 2. Ownership is never lost or gained.
            let mut owned_now: Vec<NodeId> = s.owned_ids().collect();
            owned_now.sort_unstable();
            prop_assert_eq!(&owned_now, &owned_before);
            // 3. Every hosted node keeps full routing context.
            for n in s.hosted_ids().collect::<Vec<_>>() {
                prop_assert!(s.has_context(n), "lost context for hosted {n}");
            }
            // 4. Hosted records always list self in their map.
            for n in s.hosted_ids().collect::<Vec<_>>() {
                let rec = s.host_record(n).expect("hosted");
                prop_assert!(rec.map.contains(ServerId(0)), "self missing from {n}'s map");
            }
            // 5. Load stays normalized.
            let l = s.effective_load(now);
            prop_assert!((0.0..=1.0).contains(&l));
        }
    }
}
