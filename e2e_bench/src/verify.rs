//! Correctness checks that do not go through the serving path: responses
//! against the autograd-tape model, training against baselines, and the
//! simulator against closed-form values.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use deepseq_core::encoding::initial_states;
use deepseq_core::{CircuitGraph, DeepSeq, EvalMetrics, Predictions};
use deepseq_netlist::{parse_aiger, SeqAig};
use deepseq_sim::{simulate, PiStimulus, SimOptions, Workload};

/// The tape model's predictions for the AIG parsed from the bytes sent,
/// under the server's default workload (every PI at `p1 = 0.5`).
pub fn reference(model: &DeepSeq, text: &str, seed: u64) -> Result<Predictions, String> {
    let aig = parse_aiger(text).map_err(|e| format!("reference parse: {e}"))?;
    let graph = CircuitGraph::build(&aig);
    let h0 = initial_states(
        &aig,
        &Workload::uniform(aig.num_pis(), 0.5),
        model.config().hidden_dim,
        seed,
    );
    Ok(model.predict(&graph, &h0))
}

/// The byte range of a JSON array value following `"key":`.
fn array_span(body: &str, key: &str) -> Result<(usize, usize), String> {
    let tag = format!("\"{key}\":");
    let start = body
        .find(&tag)
        .ok_or_else(|| format!("response has no {key:?}"))?
        + tag.len();
    let mut depth = 0usize;
    for (i, c) in body[start..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Ok((start, start + i + 1));
                }
            }
            _ if depth == 0 => return Err(format!("{key:?} is not an array")),
            _ => {}
        }
    }
    Err(format!("unterminated {key:?} array"))
}

/// Every number of a (nested) JSON array of numbers.
fn parse_numbers(array: &str) -> Result<Vec<f32>, String> {
    array
        .split(['[', ']', ','])
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim()
                .parse::<f32>()
                .map_err(|_| format!("non-numeric prediction {s:?}"))
        })
        .collect()
}

/// Bitwise comparison of served values against a reference matrix.
fn compare_bits(what: &str, got: &[f32], want: &deepseq_nn::Matrix) -> Result<(), String> {
    if got.len() != want.data().len() {
        return Err(format!(
            "{what}: {} values served, {} expected",
            got.len(),
            want.data().len()
        ));
    }
    match got
        .iter()
        .zip(want.data())
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}[{i}]: served {} but the tape model gives {}",
            got[i],
            want.data()[i]
        )),
    }
}

/// Checks served responses against references. Bodies are kept once per
/// distinct content and compared value by value after the timed window.
pub struct Verifier {
    references: HashMap<(usize, u64), Predictions>,
    bodies: HashMap<((usize, u64), u64), Vec<u8>>,
}

impl Verifier {
    pub fn new(references: HashMap<(usize, u64), Predictions>) -> Verifier {
        Verifier {
            references,
            bodies: HashMap::new(),
        }
    }

    /// Records one 200 response body for `(circuit, seed)`.
    pub fn observe(&mut self, key: (usize, u64), body: Vec<u8>) {
        // Everything from the predictions on; the id and cache flag before
        // them differ between requests for the same circuit.
        let from = body.windows(5).position(|w| w == b"\"tr\":").unwrap_or(0);
        let mut hasher = DefaultHasher::new();
        body[from..].hash(&mut hasher);
        self.bodies.entry((key, hasher.finish())).or_insert(body);
    }

    /// Checks every distinct body recorded; returns the mismatches and the
    /// bodies that have no reference.
    pub fn finish(self) -> Vec<String> {
        self.bodies
            .iter()
            .filter_map(|((key, _), body)| {
                let checked = match self.references.get(key) {
                    Some(want) => check_body(body, want),
                    None => Err("no reference to check the response against".to_string()),
                };
                checked
                    .err()
                    .map(|e| format!("circuit {} seed {}: {e}", key.0, key.1))
            })
            .collect()
    }
}

/// Served `(tr, lg)` values of a response body.
fn served_values(body: &[u8]) -> Result<(Vec<f32>, Vec<f32>), String> {
    let body = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let (tr_start, tr_end) = array_span(body, "tr")?;
    let (lg_start, lg_end) = array_span(body, "lg")?;
    Ok((
        parse_numbers(&body[tr_start..tr_end])?,
        parse_numbers(&body[lg_start..lg_end])?,
    ))
}

/// A response body against the tape model's predictions, bit for bit.
fn check_body(body: &[u8], want: &Predictions) -> Result<(), String> {
    let (tr, lg) = served_values(body)?;
    compare_bits("tr", &tr, &want.tr)?;
    compare_bits("lg", &lg, &want.lg)
}

/// Trained held-out error must beat both the untrained model and the
/// constant predictor on both tasks.
pub fn learning_check(
    trained: EvalMetrics,
    untrained: EvalMetrics,
    constant: EvalMetrics,
) -> Result<(), String> {
    for (task, t, u, c) in [
        ("PE_TR", trained.pe_tr, untrained.pe_tr, constant.pe_tr),
        ("PE_LG", trained.pe_lg, untrained.pe_lg, constant.pe_lg),
    ] {
        if !(t < u && t < c) {
            return Err(format!(
                "{task} {t:.4} is not below untrained {u:.4} and constant {c:.4}"
            ));
        }
    }
    Ok(())
}

/// Simulator labels against closed-form values on hand-built circuits: a
/// PI's logic-1 probability lies within five binomial standard deviations
/// of its stimulus, and a toggling FF has `p01 = p10 = 0.5`: it switches on
/// every cycle, so `p01 + p10 = 1` exactly, and the window of at least
/// `cycles − warmup − 1` counted transitions splits them evenly up to one
/// transition.
pub fn simulator_check(seed: u64) -> Result<(), String> {
    let opts = SimOptions {
        cycles: 256,
        warmup: 16,
        seed,
    };
    let p = 0.3;
    let mut aig = SeqAig::new("closed_form");
    let a = aig.add_pi("a");
    let q = aig.add_ff("q", false);
    let nq = aig.add_not(q);
    aig.connect_ff(q, nq).map_err(|e| e.to_string())?;
    aig.set_output(a, "a");
    let result = simulate(
        &aig,
        &Workload::new(vec![PiStimulus::independent(p)]),
        &opts,
    );
    let samples = (64 * (opts.cycles - opts.warmup)) as f64;
    let bound = 5.0 * (p * (1.0 - p) / samples).sqrt();
    let p1 = result.probs.p1[a.index()];
    if (p1 - p).abs() > bound {
        return Err(format!("PI p1 {p1:.4} is not within {bound:.4} of {p}"));
    }
    let (p01, p10) = (result.probs.p01[q.index()], result.probs.p10[q.index()]);
    let one_transition = 1.0 / (opts.cycles - opts.warmup - 1) as f64;
    if (p01 + p10 - 1.0).abs() > 1e-9 || (p01 - p10).abs() > one_transition + 1e-12 {
        return Err(format!(
            "toggling FF has p01 {p01:.4} and p10 {p10:.4}, not 0.5"
        ));
    }
    Ok(())
}
