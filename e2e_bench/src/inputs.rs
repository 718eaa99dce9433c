//! The serving workloads' inputs, all derived from the run seed: the
//! paper-scale designs, the multi-block circuit and its edit sequence, and
//! the request sequences sent over HTTP.

use deepseq_data::random::{random_circuit, CircuitSpec};
use deepseq_netlist::{lower_to_aig, write_aiger, AigNode, NodeId, SeqAig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Derives an independent seed from a base seed and a tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    deepseq_netlist::hash::combine(deepseq_netlist::hash::mix(seed), tag)
}

/// How a request is expected to be served.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Class {
    /// Nothing cached: the whole circuit is propagated.
    Cold,
    /// One block changed since a cached version: the cone memo supplies
    /// every other block.
    Edit,
    /// The exact circuit was served before: an embedding-cache hit.
    Hit,
}

/// One request of a pass.
#[derive(Clone)]
pub struct Request {
    /// Index into the workload's circuit list.
    pub circuit: usize,
    pub seed: u64,
    pub class: Class,
    /// Close the connection and open a fresh one before sending.
    pub fresh_conn: bool,
}

/// One circuit as sent: its AIGER text.
pub struct Circuit {
    pub name: String,
    pub text: String,
}

/// A serving workload: its circuits and the request sequence of one pass.
/// Every pass of a run sends exactly this sequence.
pub struct ServingInputs {
    pub circuits: Vec<Circuit>,
    pub requests: Vec<Request>,
}

impl ServingInputs {
    /// Every distinct `(circuit, seed)` pair the passes send.
    pub fn distinct(&self) -> Vec<(usize, u64)> {
        let mut pairs: Vec<(usize, u64)> =
            self.requests.iter().map(|r| (r.circuit, r.seed)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

/// The three largest generated designs.
const PAPER_DESIGNS: [&str; 3] = ["pll", "ac97_ctrl", "mem_ctrl"];

/// `paper_cold`: the client sends the three largest designs, each with
/// its own seed, in a seeded order.
pub fn paper_cold(seed: u64) -> ServingInputs {
    let circuits: Vec<Circuit> = PAPER_DESIGNS
        .iter()
        .map(|&name| {
            let netlist = deepseq_data::designs::design_by_name(name).expect("known design");
            let aig = lower_to_aig(&netlist).expect("designs lower").aig;
            Circuit {
                name: name.to_string(),
                text: write_aiger(&aig),
            }
        })
        .collect();
    let mut order: Vec<usize> = (0..circuits.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(derive(seed, 1)));
    let requests = order
        .into_iter()
        .map(|circuit| Request {
            circuit,
            seed: derive(seed, 100 + circuit as u64) % 1_000_000,
            class: Class::Cold,
            fresh_conn: false,
        })
        .collect();
    ServingInputs { circuits, requests }
}

// The `edit_mix` traffic shape is assumed, not taken from a recorded
// request log (the repository has none): 16 blocks as in the serve crate's
// `serve_cone_*_blocks16` benchmarks, one edit per three requests, re-sends
// among the four newest versions and a fresh connection every eighth
// request. The traced run reports each request class's p50 on its own, so a
// change in this mix cannot pass for a change in speed.

/// Blocks per `edit_mix` circuit.
const BLOCKS: usize = 16;
/// Requests per `edit_mix` pass.
const EDIT_PASS: usize = 36;
/// `edit_mix` opens a fresh connection once per this many requests.
const FRESH_EVERY: usize = 8;
/// Re-sends pick among this many most recent versions.
const RECENT: usize = 4;
/// AND inputs rewired per edit.
const REWIRES: usize = 2;

fn block_spec() -> CircuitSpec {
    CircuitSpec {
        num_pis: 10,
        num_ffs: 14,
        num_gates: 200,
        ..CircuitSpec::default()
    }
}

/// Seed of the `edit_mix` base circuit, a fixed fixture: the run seed
/// draws the edits, the re-sends and the request seed. (Base circuits drawn
/// per run seed move the served-prediction error by about 9% between runs.)
const BASE_SEED: u64 = 12;

/// `edit_mix`: one client editing a multi-block circuit.
///
/// Request 0 of a pass sends the base circuit (cold). Every third request
/// after it sends a new version with one block edited; the others re-send
/// one of the most recent versions exactly. Every eighth request goes out
/// on a fresh connection.
pub fn edit_mix(seed: u64) -> ServingInputs {
    let mut base = StdRng::seed_from_u64(BASE_SEED);
    let mut blocks: Vec<SeqAig> = (0..BLOCKS)
        .map(|b| random_circuit(&format!("b{b}"), &block_spec(), &mut base))
        .collect();
    let mut rng = StdRng::seed_from_u64(derive(seed, 10));
    let request_seed = rng.gen_range(0..1_000_000u64);
    let mut circuits = vec![join("v0", &blocks)];
    let mut requests = vec![Request {
        circuit: 0,
        seed: request_seed,
        class: Class::Cold,
        fresh_conn: false,
    }];
    for i in 1..EDIT_PASS {
        let (circuit, class) = if i % 3 == 1 {
            let b = rng.gen_range(0..BLOCKS);
            blocks[b] = rewire(&blocks[b], REWIRES, &mut rng);
            circuits.push(join(&format!("v{}", circuits.len()), &blocks));
            (circuits.len() - 1, Class::Edit)
        } else {
            let recent = circuits.len().saturating_sub(RECENT)..circuits.len();
            (rng.gen_range(recent), Class::Hit)
        };
        requests.push(Request {
            circuit,
            seed: request_seed,
            class,
            fresh_conn: i % FRESH_EVERY == FRESH_EVERY - 1,
        });
    }
    ServingInputs { circuits, requests }
}

/// Joins independent blocks into one AIG, block after block, so each block
/// is its own fanin-cone component.
fn join(name: &str, blocks: &[SeqAig]) -> Circuit {
    let mut out = SeqAig::new(name);
    for (b, block) in blocks.iter().enumerate() {
        append(&mut out, block, &format!("b{b}_"), |_| None);
    }
    Circuit {
        name: name.to_string(),
        text: write_aiger(&out),
    }
}

/// Appends `src` to `dst`; `replace(and_node)` may give new operands for an
/// AND node of `src`.
fn append(
    dst: &mut SeqAig,
    src: &SeqAig,
    prefix: &str,
    replace: impl Fn(NodeId) -> Option<(NodeId, NodeId)>,
) {
    let mut map: Vec<NodeId> = Vec::with_capacity(src.len());
    for (id, node) in src.iter() {
        let name = || format!("{prefix}{}", src.node_name(id).unwrap_or("n"));
        let new = match *node {
            AigNode::Pi => dst.add_pi(name()),
            AigNode::Ff { init, .. } => dst.add_ff(name(), init),
            AigNode::Not(a) => dst.add_not(map[a.index()]),
            AigNode::And(a, b) => {
                let (a, b) = replace(id).unwrap_or((a, b));
                dst.add_and(map[a.index()], map[b.index()])
            }
        };
        map.push(new);
    }
    for (id, node) in src.iter() {
        if let AigNode::Ff { d: Some(d), .. } = *node {
            dst.connect_ff(map[id.index()], map[d.index()])
                .expect("block FFs connect");
        }
    }
    for (node, name) in src.outputs() {
        dst.set_output(map[node.index()], format!("{prefix}{name}"));
    }
}

/// A same-size variant of `block`: `count` AND inputs that are plain (not
/// inverted) signals are moved to other plain signals defined earlier.
///
/// The set of inverted signals is unchanged, so after an AIGER round trip
/// the block has as many nodes of each kind as before, and every other
/// block of a joined circuit keeps its node numbering.
fn rewire(block: &SeqAig, count: usize, rng: &mut StdRng) -> SeqAig {
    let plain = |id: NodeId| !matches!(block.node(id), AigNode::Not(_));
    let mut edits: Vec<(NodeId, (NodeId, NodeId))> = Vec::new();
    while edits.len() < count {
        let g = NodeId(rng.gen_range(0..block.len()) as u32);
        let AigNode::And(a, b) = *block.node(g) else {
            continue;
        };
        if edits.iter().any(|(e, _)| *e == g) || !plain(b) || g.index() < 2 {
            continue;
        }
        let to = NodeId(rng.gen_range(0..g.index()) as u32);
        if !plain(to) || to == a || to == b {
            continue;
        }
        edits.push((g, (a, to)));
    }
    let mut out = SeqAig::new(block.name());
    append(&mut out, block, "", |id| {
        edits.iter().find(|(g, _)| *g == id).map(|(_, ops)| *ops)
    });
    out
}
