//! The serving workloads, `paper_cold` and `edit_mix`: the real
//! `deepseq-serve serve` binary driven over HTTP in a closed loop, plus the
//! traced run's in-process replay of the same inputs through each layer.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use deepseq_core::encoding::initial_states;
use deepseq_core::{CircuitGraph, DeepSeq, DeepSeqConfig, Predictions};
use deepseq_netlist::{cone_hashes, parse_aiger, structural_hash, SeqAig};
use deepseq_nn::trace::{self, SpanKind};
use deepseq_nn::{CheckpointMap, Matrix, Pool};
use deepseq_serve::json::response_to_json;
use deepseq_serve::{Engine, EngineOptions, InferenceModel, ServeRequest, Workspace};
use deepseq_sim::{simulate, SimOptions, Workload};

use crate::client::{Conn, Server};
use crate::inputs::{Class, Request, ServingInputs};
use crate::report::{mean, median, ms, quantile, Report};
use crate::verify::{reference, Verifier};
use crate::Args;

/// Server lifetimes per untraced run; `setup_s` is the median of their
/// start-ups.
const LIFETIMES: usize = 5;
/// Timed passes per lifetime, at least; `peak_rss_mb` is read after them,
/// so it does not depend on how many passes fit in the window.
const MIN_PASSES: usize = 3;

/// One answered (or failed) request.
struct Sample {
    class: Class,
    fresh: bool,
    /// Send to last byte.
    latency_ms: f64,
    /// `connect()` to last byte, for requests on a fresh connection.
    from_connect_ms: f64,
    nodes: usize,
    ok: bool,
}

/// Outcome of a series of passes.
#[derive(Default)]
struct Passes {
    samples: Vec<Sample>,
    /// Duration of each pass.
    pass_seconds: Vec<f64>,
    /// Server `VmHWM` after `MIN_PASSES` timed passes.
    peak_rss_mib: Option<f64>,
    /// Transport errors and non-200 answers, described.
    failures: Vec<String>,
    /// Reloads that did not succeed (a pass could then hit stale caches).
    errors: Vec<String>,
}

/// The client's kept-alive connection, opened again when it is missing.
fn connection(addr: SocketAddr, conn: &mut Option<Conn>) -> std::io::Result<&mut Conn> {
    if conn.is_none() {
        *conn = Some(Conn::open(addr)?);
    }
    Ok(conn.as_mut().expect("just opened"))
}

/// Runs passes of `inputs` from one closed-loop client until `timed`
/// seconds of pass time have elapsed (at least `MIN_PASSES`), or exactly
/// one untimed warm-up pass, which sends no reload. `server` is the
/// server whose memory is sampled. Before each timed pass the client
/// reloads the checkpoint, which clears the embedding cache and retires
/// every cone-memo entry, so every pass does the same work; reloads are
/// not timed.
fn run_passes(
    server: &Server,
    conn: &mut Option<Conn>,
    inputs: &ServingInputs,
    node_counts: &[usize],
    verifier: &mut Verifier,
    timed: Option<f64>,
) -> Passes {
    let mut out = Passes::default();
    loop {
        if timed.is_some() {
            match connection(server.addr, conn)
                .and_then(|c| c.request("POST", "/admin/reload", b""))
            {
                Ok(reply) if reply.status == 200 => {}
                Ok(reply) => out.errors.push(format!("reload answered {}", reply.status)),
                Err(e) => out.errors.push(format!("reload: {e}")),
            }
        }
        let start = Instant::now();
        for (index, request) in inputs.requests.iter().enumerate() {
            let sample = send(
                server.addr,
                conn,
                inputs,
                node_counts,
                verifier,
                request,
                index,
            );
            match sample {
                Ok(sample) => out.samples.push(sample),
                Err((sample, failure)) => {
                    out.samples.push(sample);
                    out.failures.push(failure);
                    *conn = None;
                }
            }
        }
        out.pass_seconds.push(start.elapsed().as_secs_f64());
        let passes = out.pass_seconds.len();
        if timed.is_some() && passes == MIN_PASSES {
            out.peak_rss_mib = Some(server.peak_rss_mib());
        }
        let elapsed: f64 = out.pass_seconds.iter().sum();
        if !timed.is_some_and(|limit| elapsed < limit || passes < MIN_PASSES) {
            return out;
        }
    }
}

/// Sends one request; on failure returns the sample and what went wrong.
fn send(
    addr: SocketAddr,
    conn: &mut Option<Conn>,
    inputs: &ServingInputs,
    node_counts: &[usize],
    verifier: &mut Verifier,
    request: &Request,
    id: usize,
) -> Result<Sample, (Sample, String)> {
    let mut sample = Sample {
        class: request.class,
        fresh: request.fresh_conn,
        latency_ms: 0.0,
        from_connect_ms: 0.0,
        nodes: 0,
        ok: false,
    };
    let connect = Instant::now();
    if request.fresh_conn {
        // Close before opening: a server with N pool threads serves only
        // N − 1 kept-alive connections at once (see the README).
        *conn = None;
    }
    let conn = match connection(addr, conn) {
        Ok(conn) => conn,
        Err(e) => return Err((sample, format!("request {id}: connect: {e}"))),
    };
    let target = format!("/v1/embed?seed={}&id={id}", request.seed);
    let body = inputs.circuits[request.circuit].text.as_bytes();
    let sent = Instant::now();
    let result = conn.request("POST", &target, body);
    let done = Instant::now();
    sample.latency_ms = ms(done - sent);
    sample.from_connect_ms = ms(done - connect);
    let reply = match result {
        Ok(reply) => reply,
        Err(e) => return Err((sample, format!("request {id}: {e}"))),
    };
    if reply.status != 200 {
        let failure = format!(
            "request {id} answered {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        );
        return Err((sample, failure));
    }
    let text = String::from_utf8_lossy(&reply.body);
    let nodes = field(&text, "nodes");
    let echoed = field(&text, "id");
    if nodes != Some(node_counts[request.circuit]) || echoed != Some(id) {
        let failure =
            format!("request {id}: nodes {nodes:?} / id {echoed:?} do not match the request");
        return Err((sample, failure));
    }
    verifier.observe((request.circuit, request.seed), reply.body);
    sample.ok = true;
    sample.nodes = node_counts[request.circuit];
    Ok(sample)
}

/// An unsigned integer field of a JSON object.
fn field(text: &str, key: &str) -> Option<usize> {
    let tag = format!("\"{key}\":");
    let rest = &text[text.find(&tag)? + tag.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Starts a server and sends one untimed warm-up pass; returns the server,
/// the client's connection and the set-up time.
fn set_up(
    args: &Args,
    checkpoint: &Path,
    inputs: &ServingInputs,
    node_counts: &[usize],
    verifier: &mut Verifier,
    report: &mut Report,
) -> Result<(Server, Conn, f64), String> {
    let start = Instant::now();
    let server = Server::spawn(&args.server, checkpoint).map_err(|e| format!("server: {e}"))?;
    let mut slot = None;
    let warm = run_passes(&server, &mut slot, inputs, node_counts, verifier, None);
    let conn = match slot {
        Some(conn) => conn,
        None => Conn::open(server.addr).map_err(|e| format!("connect: {e}"))?,
    };
    let seconds = start.elapsed().as_secs_f64();
    for f in warm.failures.into_iter().chain(warm.errors) {
        report.check(false, || format!("warm-up: {f}"));
    }
    Ok((server, conn, seconds))
}

fn write_checkpoint(args: &Args, model: &DeepSeq) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&args.workdir).map_err(|e| format!("workdir: {e}"))?;
    let path = args.workdir.join("model.dsqm");
    std::fs::write(&path, model.save_binary()).map_err(|e| format!("checkpoint: {e}"))?;
    Ok(path)
}

/// The tape model's predictions for every distinct request, computed on
/// two threads.
fn references(
    model: &DeepSeq,
    inputs: &ServingInputs,
) -> Result<HashMap<(usize, u64), Predictions>, String> {
    let pairs = &inputs.distinct();
    std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|half| {
                s.spawn(move || {
                    pairs
                        .iter()
                        .skip(half)
                        .step_by(2)
                        .map(|&(circuit, seed)| {
                            reference(model, &inputs.circuits[circuit].text, seed)
                                .map(|p| ((circuit, seed), p))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// Error of the served predictions against simulated labels of the served
/// circuits (the served model is untrained).
fn served_error(inputs: &ServingInputs, refs: &HashMap<(usize, u64), Predictions>) -> (f64, f64) {
    let mut labels: HashMap<usize, deepseq_sim::NodeProbabilities> = HashMap::new();
    let (mut tr, mut tr_n, mut lg, mut lg_n) = (0.0, 0usize, 0.0, 0usize);
    let mut keys: Vec<_> = refs.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let probs = labels.entry(key.0).or_insert_with(|| {
            let aig = parse_aiger(&inputs.circuits[key.0].text).expect("inputs parse");
            let w = Workload::uniform(aig.num_pis(), 0.5);
            simulate(&aig, &w, &SimOptions::default()).probs
        });
        let p = &refs[&key];
        for (r, (&p01, &p10)) in probs.p01.iter().zip(&probs.p10).enumerate() {
            tr += (p.tr.get(r, 0) as f64 - p01).abs() + (p.tr.get(r, 1) as f64 - p10).abs();
            tr_n += 2;
            lg += (p.lg.get(r, 0) as f64 - probs.p1[r]).abs();
            lg_n += 1;
        }
    }
    (tr / tr_n.max(1) as f64, lg / lg_n.max(1) as f64)
}

pub fn run(args: &Args, workload: &str, report: &mut Report) -> Result<(), String> {
    let inputs = match workload {
        "paper_cold" => crate::inputs::paper_cold(args.seed),
        _ => crate::inputs::edit_mix(args.seed),
    };
    // The served model is the program's default configuration with its
    // default weight seed (what `deepseq-serve serve` builds without a
    // checkpoint), written out as a binary checkpoint.
    let model = DeepSeq::new(DeepSeqConfig::default());
    let checkpoint = write_checkpoint(args, &model)?;
    // The tape model reloads from the same bytes the server maps.
    let bytes = std::fs::read(&checkpoint).map_err(|e| format!("checkpoint: {e}"))?;
    let model = DeepSeq::from_binary_checkpoint(&bytes).map_err(|e| format!("checkpoint: {e}"))?;
    let node_counts: Vec<usize> = inputs
        .circuits
        .iter()
        .map(|c| parse_aiger(&c.text).map(|a| a.len()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("inputs: {e}"))?;
    let refs = references(&model, &inputs)?;
    let (pe_tr, pe_lg) = served_error(&inputs, &refs);
    let distinct = refs.len();
    let mut verifier = Verifier::new(refs);

    // Each server lifetime serves an equal share of the timed window, so
    // one slow start-up (placement, page cache, neighbours on a shared
    // host) moves the medians less.
    let lifetimes = if args.trace { 1 } else { LIFETIMES };
    let share = args.seconds / lifetimes as f64;
    let mut setup_times = Vec::new();
    let mut run = Passes::default();
    let mut peak_rss = Vec::new();
    let mut windows = Vec::new();
    let mut lifetime_pass_s = Vec::new();
    let mut accept = None;
    for _ in 0..lifetimes {
        let (server, mut conn, seconds) = set_up(
            args,
            &checkpoint,
            &inputs,
            &node_counts,
            &mut verifier,
            report,
        )?;
        setup_times.push(seconds);
        let before = conn.metrics().map_err(|e| format!("metrics: {e}"))?;
        let mut slot = Some(conn);
        let passes = run_passes(
            &server,
            &mut slot,
            &inputs,
            &node_counts,
            &mut verifier,
            Some(share),
        );
        let after = connection(server.addr, &mut slot)
            .and_then(Conn::metrics)
            .map_err(|e| format!("metrics: {e}"))?;
        windows.push((before, after));
        peak_rss.push(passes.peak_rss_mib.unwrap_or_else(|| server.peak_rss_mib()));
        lifetime_pass_s.push(median(&passes.pass_seconds));
        run.samples.extend(passes.samples);
        run.pass_seconds.extend(passes.pass_seconds);
        run.failures.extend(passes.failures);
        run.errors.extend(passes.errors);
        if args.trace {
            // The probe opens connections of its own; the server would not
            // answer them while this one is kept alive (fault (b)).
            slot = None;
            accept = Some(accept_probe(server.addr)?);
        }
        let stopper = match slot {
            Some(conn) => conn,
            None => Conn::open(server.addr).map_err(|e| format!("connect: {e}"))?,
        };
        server.stop(stopper).map_err(|e| format!("stop: {e}"))?;
    }
    let peak_rss = median(&peak_rss);

    // Checks.
    report.attempted = run.samples.len() as u64;
    report.failed = run.samples.iter().filter(|s| !s.ok).count() as u64;
    for f in &run.failures {
        report.note(format!("failure: {f}"));
    }
    for e in &run.errors {
        report.check(false, || e.clone());
    }
    for e in verifier.finish() {
        report.check(false, || e);
    }
    let delta = |series: &str| -> f64 { windows.iter().map(|(b, a)| a.delta(b, series)).sum() };
    let (hits, cone_hits) = (
        delta("deepseq_cache_hits_total"),
        delta("deepseq_cone_hits_total"),
    );
    if workload == "edit_mix" {
        report.check(hits > 0.0 && cone_hits > 0.0, || {
            format!("edit_mix shows {hits} cache hits and {cone_hits} cone hits")
        });
    } else {
        report.check(hits == 0.0 && cone_hits == 0.0, || {
            format!("paper_cold shows {hits} cache hits and {cone_hits} cone hits")
        });
    }

    report.note(format!(
        "circuits: {}",
        inputs
            .circuits
            .iter()
            .zip(&node_counts)
            .map(|(c, n)| format!("{} {n} nodes", c.name))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let ok: Vec<&Sample> = run.samples.iter().filter(|s| s.ok).collect();
    let latencies: Vec<f64> = ok.iter().map(|s| s.latency_ms).collect();
    let fresh: Vec<f64> = ok
        .iter()
        .filter(|s| s.fresh)
        .map(|s| s.from_connect_ms)
        .collect();
    let nodes: usize = ok.iter().map(|s| s.nodes).sum();
    let seconds: f64 = run.pass_seconds.iter().sum();
    let pass_s = median(&run.pass_seconds);
    report.note(format!(
        "{} passes of {} requests in {:.3} s; p90 {:.3} ms over {} samples; fresh-connection p50 {:.3} ms over {}",
        run.pass_seconds.len(),
        inputs.requests.len(),
        seconds,
        quantile(&latencies, 0.9),
        latencies.len(),
        median(&fresh),
        fresh.len()
    ));
    report.note(format!(
        "median pass seconds per server lifetime: {lifetime_pass_s:.4?}"
    ));
    report.note(format!(
        "pass seconds: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
        quantile(&run.pass_seconds, 0.0),
        quantile(&run.pass_seconds, 0.25),
        pass_s,
        quantile(&run.pass_seconds, 0.75),
        quantile(&run.pass_seconds, 1.0)
    ));
    // Each request class's p50 on kept-alive connections: the end-to-end
    // p50 depends on the assumed class mix, these do not.
    let class_p50: Vec<(Class, f64, usize)> = [Class::Hit, Class::Edit, Class::Cold]
        .into_iter()
        .map(|class| {
            let l: Vec<f64> = ok
                .iter()
                .filter(|s| s.class == class && !s.fresh)
                .map(|s| s.latency_ms)
                .collect();
            (class, median(&l), l.len())
        })
        .collect();
    for &(class, p50, n) in class_p50.iter().filter(|c| c.2 > 0) {
        report.note(format!(
            "{class:?} requests on kept-alive connections: p50 {p50:.3} ms, n={n}"
        ));
    }

    if !args.trace {
        report.metric("setup_s", median(&setup_times), "s", setup_times.len());
        // Work per pass over the median pass time, so one stalled pass
        // does not move the figure.
        let passes = run.pass_seconds.len();
        let per_pass = ok.len() as f64 / passes as f64;
        let nodes_per_pass = nodes as f64 / passes as f64;
        report.metric("ops_per_s", per_pass / pass_s, "1/s", passes);
        report.metric("nodes_per_s", nodes_per_pass / pass_s, "nodes/s", passes);
        report.metric("latency_p50_ms", median(&latencies), "ms", latencies.len());
        report.metric("peak_rss_mb", peak_rss, "MiB", 1);
        report.metric("pe_tr", pe_tr, "prob", distinct);
        report.metric("pe_lg", pe_lg, "prob", distinct);
        return Ok(());
    }

    // Traced run: counters from the server, then the in-process layers.
    let requests = delta("deepseq_requests_total{endpoint=\"embed\"}").max(1.0);
    let ratio = |h: &str, m: &str| {
        let (h, m) = (delta(h), delta(m));
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    };
    let keepalive: Vec<f64> = ok
        .iter()
        .filter(|s| !s.fresh)
        .map(|s| s.latency_ms)
        .collect();
    let layers = in_process(&checkpoint, &inputs)?;
    report.metric(
        "params.checkpoint_load_ms",
        layers.checkpoint_load_ms,
        "ms",
        5,
    );
    for (name, value, unit, n) in layers.values {
        report.metric(name, value, unit, n);
    }
    report.metric(
        "pool.steals_per_req",
        delta("deepseq_pool_steals_total") / requests,
        "count",
        requests as usize,
    );
    report.metric(
        "pool.parks_per_req",
        delta("deepseq_pool_parks_total") / requests,
        "count",
        requests as usize,
    );
    report.metric(
        "cache.hit_ratio",
        ratio("deepseq_cache_hits_total", "deepseq_cache_misses_total"),
        "ratio",
        requests as usize,
    );
    report.metric(
        "cone.hit_ratio",
        ratio("deepseq_cone_hits_total", "deepseq_cone_misses_total"),
        "ratio",
        requests as usize,
    );
    let outside = delta("deepseq_http_request_duration_seconds_sum")
        - delta("deepseq_engine_duration_seconds_sum");
    report.metric(
        "server.non_engine_ms",
        1e3 * outside / requests,
        "ms",
        requests as usize,
    );
    report.metric(
        "server.rejected",
        [
            "deepseq_rejected_queue_full_total",
            "deepseq_deadline_expired_total",
            "deepseq_rejected_draining_total",
            "deepseq_rejected_degraded_total",
        ]
        .iter()
        .map(|s| delta(s))
        .sum(),
        "count",
        1,
    );
    report.metric(
        "http.overhead_ms",
        median(&keepalive) - layers.engine_p50_ms,
        "ms",
        keepalive.len(),
    );
    let (fresh_healthz, kept_healthz) = accept.expect("traced run probes accept");
    report.metric(
        "http.accept_ms",
        median(&fresh_healthz) - median(&kept_healthz),
        "ms",
        fresh_healthz.len(),
    );
    report.metric(
        "client.latency_p90_ms",
        quantile(&latencies, 0.9),
        "ms",
        latencies.len(),
    );
    report.metric(
        "client.fresh_conn_p50_ms",
        median(&fresh),
        "ms",
        fresh.len(),
    );
    for (class, p50, n) in class_p50 {
        let name = match class {
            Class::Hit => "client.hit_p50_ms",
            Class::Edit => "client.edit_p50_ms",
            Class::Cold => "client.cold_p50_ms",
        };
        report.metric(name, p50, "ms", n);
    }
    crate::zero_layers(
        report,
        &[
            "data.corpus_ms",
            "sim.simulate_ms",
            "train.forward_ms",
            "train.backward_ms",
            "train.adam_ms",
            "train.eval_ms",
        ],
    );
    Ok(())
}

/// `/healthz` timings: on fresh connections (from `connect()`) and on one
/// kept-alive connection.
fn accept_probe(addr: std::net::SocketAddr) -> Result<(Vec<f64>, Vec<f64>), String> {
    const PROBES: usize = 25;
    let mut fresh = Vec::new();
    for _ in 0..PROBES {
        let start = Instant::now();
        let mut conn = Conn::open(addr).map_err(|e| format!("probe: {e}"))?;
        conn.request("GET", "/healthz", b"")
            .map_err(|e| format!("probe: {e}"))?;
        fresh.push(ms(start.elapsed()));
    }
    let mut conn = Conn::open(addr).map_err(|e| format!("probe: {e}"))?;
    let mut kept = Vec::new();
    for _ in 0..PROBES {
        let start = Instant::now();
        conn.request("GET", "/healthz", b"")
            .map_err(|e| format!("probe: {e}"))?;
        kept.push(ms(start.elapsed()));
    }
    Ok((fresh, kept))
}

struct Layers {
    checkpoint_load_ms: f64,
    engine_p50_ms: f64,
    values: Vec<(&'static str, f64, &'static str, usize)>,
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, ms(start.elapsed()))
}

/// GEMM work of one traced unit of work, read from the program's span
/// tracing.
#[derive(Default, Clone, Copy)]
pub struct Gemm {
    pub calls: f64,
    /// GEMM span time, summed over threads.
    pub ns: f64,
    /// `2·m·k·n` summed over the unit's GEMM spans.
    pub flops: f64,
}

impl std::ops::AddAssign for Gemm {
    fn add_assign(&mut self, other: Gemm) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.flops += other.flops;
    }
}

fn gemm_stage() -> (u64, u64) {
    let stage = trace::stage_stats()
        .into_iter()
        .find(|s| s.kind == SpanKind::Gemm)
        .expect("gemm stage exists");
    (stage.count, stage.sum_ns)
}

/// Runs `f` with span tracing on, under a trace id of its own, and returns
/// its result, its wall time in ms and its GEMM work. Calls and time come
/// from the `gemm` stage histogram; flops from the shapes of the unit's
/// spans, which must all still be in the trace rings (an error otherwise).
pub fn traced_gemm<T>(f: impl FnOnce() -> T) -> Result<(T, f64, Gemm), String> {
    let id = trace::next_trace_id();
    trace::set_enabled(true);
    let (count, sum_ns) = gemm_stage();
    let scope = trace::scope(id);
    let (out, wall_ms) = time(f);
    drop(scope);
    let (count_after, sum_ns_after) = gemm_stage();
    trace::set_enabled(false);
    let spans: Vec<_> = trace::collect(id)
        .into_iter()
        .filter(|r| r.kind == SpanKind::Gemm)
        .collect();
    let calls = count_after - count;
    if spans.len() as u64 != calls {
        return Err(format!(
            "{calls} GEMM calls traced but {} spans kept: the trace rings overflowed",
            spans.len()
        ));
    }
    let flops = spans
        .iter()
        .map(|r| {
            let (m, k, n) = trace::unpack_dims(r.detail);
            2.0 * (m * k * n) as f64
        })
        .sum();
    let gemm = Gemm {
        calls: calls as f64,
        ns: (sum_ns_after - sum_ns) as f64,
        flops,
    };
    Ok((out, wall_ms, gemm))
}

/// Replays the workload's inputs through each layer's public calls.
fn in_process(checkpoint: &Path, inputs: &ServingInputs) -> Result<Layers, String> {
    let mut loads = Vec::new();
    let mut model = None;
    for _ in 0..5 {
        let (m, t) = time(|| {
            let map = CheckpointMap::open(checkpoint).map_err(|e| e.to_string())?;
            InferenceModel::from_binary_checkpoint(map.bytes()).map_err(|e| e.to_string())
        });
        model = Some(m?);
        loads.push(t);
    }
    let model = model.expect("loaded");
    let hidden = model.config().hidden_dim;
    let sequence = &inputs.requests;
    let reps = (60 / sequence.len()).max(2);

    // Parsing, hashing, graph build and initial states, per request sent.
    let mut t = [Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..reps {
        for r in sequence {
            let text = &inputs.circuits[r.circuit].text;
            let (aig, a) = time(|| parse_aiger(text).expect("inputs parse"));
            let (_, b) = time(|| structural_hash(&aig));
            let (_, c) = time(|| cone_hashes(&aig));
            let (_, d) = time(|| CircuitGraph::build(&aig));
            let w = Workload::uniform(aig.num_pis(), 0.5);
            let (_, e) = time(|| initial_states(&aig, &w, hidden, r.seed));
            for (slot, v) in t.iter_mut().zip([a, b, c, d, e]) {
                slot.push(v);
            }
        }
    }
    let mut values = vec![
        ("netlist.parse_aiger_ms", mean(&t[0]), "ms", t[0].len()),
        ("netlist.structural_hash_ms", mean(&t[1]), "ms", t[1].len()),
        ("netlist.cone_hashes_ms", mean(&t[2]), "ms", t[2].len()),
        ("core.graph_build_ms", mean(&t[3]), "ms", t[3].len()),
        ("core.initial_states_ms", mean(&t[4]), "ms", t[4].len()),
    ];

    // Forward pass of every distinct circuit, untraced then traced.
    let prepared: Vec<(CircuitGraph, Matrix)> = inputs
        .distinct()
        .into_iter()
        .map(|(circuit, seed)| {
            let aig = parse_aiger(&inputs.circuits[circuit].text).expect("inputs parse");
            let w = Workload::uniform(aig.num_pis(), 0.5);
            (
                CircuitGraph::build(&aig),
                initial_states(&aig, &w, hidden, seed),
            )
        })
        .collect();
    let mut ws = Workspace::new();
    let (mut prop, mut head) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (graph, h0) in &prepared {
            prop.push(time(|| model.propagate(graph, h0, &mut ws)).1);
            let state = ws.state().clone();
            head.push(time(|| model.readout(&state, &mut ws)).1);
        }
    }
    // The GEMM split is taken on a one-thread pool, where GEMM spans do not
    // overlap, so GEMM and non-GEMM time add up to the propagate wall time.
    let mut serial = Workspace::with_pool(ws.kernel(), Arc::new(Pool::new(1)));
    let (mut untraced, mut traced, mut gemm) = (Vec::new(), Vec::new(), Gemm::default());
    for (graph, h0) in &prepared {
        untraced.push(time(|| model.propagate(graph, h0, &mut serial)).1);
        let ((), wall_ms, g) = traced_gemm(|| model.propagate(graph, h0, &mut serial))?;
        traced.push(wall_ms);
        gemm += g;
    }
    let per_circuit = |x: f64| x / prepared.len() as f64;
    let gemm_ms = per_circuit(gemm.ns / 1e6);
    values.extend([
        ("infer.propagate_ms", mean(&prop), "ms", prop.len()),
        ("infer.readout_ms", mean(&head), "ms", head.len()),
        ("infer.gemm_ms", gemm_ms, "ms", prepared.len()),
        (
            "infer.non_gemm_ms",
            mean(&traced) - gemm_ms,
            "ms",
            prepared.len(),
        ),
        (
            "kernels.gemm_calls",
            per_circuit(gemm.calls),
            "count",
            prepared.len(),
        ),
        (
            "kernels.gemm_gflop_per_s",
            gemm.flops / gemm.ns.max(1.0),
            "GFLOP/s",
            gemm.calls as usize,
        ),
        (
            "trace.overhead_pct",
            100.0 * (mean(&traced) / mean(&untraced) - 1.0),
            "%",
            prepared.len(),
        ),
    ]);

    // The engine on each request class, a fresh engine per pass.
    let mut by_class: HashMap<Class, Vec<f64>> = HashMap::new();
    let (mut all, mut lookups, mut json_ms, mut json_kib, mut reused) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let parsed: Vec<SeqAig> = inputs
        .circuits
        .iter()
        .map(|c| parse_aiger(&c.text).expect("inputs parse"))
        .collect();
    let request = |r: &Request, id: u64| ServeRequest {
        id,
        aig: parsed[r.circuit].clone(),
        workload: Workload::uniform(parsed[r.circuit].num_pis(), 0.5),
        init_seed: r.seed,
    };
    for _ in 0..2 {
        let engine = Engine::new(model.clone(), EngineOptions::default());
        for (i, r) in sequence.iter().enumerate() {
            let req = request(r, i as u64);
            let (mut responses, t) = time(|| engine.serve_batch(vec![req]));
            let response = responses.pop().expect("one response");
            let served = response.result.as_ref().map_err(|e| e.to_string())?;
            if r.class == Class::Edit {
                reused.push(served.cones_reused as f64);
            }
            by_class.entry(r.class).or_default().push(t);
            all.push(t);
            let (json, t) = time(|| response_to_json(&response, false));
            json_ms.push(t);
            json_kib.push(json.len() as f64 / 1024.0);
        }
        for (i, r) in sequence.iter().enumerate() {
            let req = request(r, i as u64);
            lookups.push(1e3 * time(|| engine.lookup_cached(&req)).1);
        }
    }
    let class_ms = |c: Class| by_class.get(&c).map_or(0.0, |v| median(v));
    values.extend([
        (
            "engine.serve_hit_ms",
            class_ms(Class::Hit),
            "ms",
            by_class.get(&Class::Hit).map_or(0, Vec::len),
        ),
        (
            "engine.serve_edit_ms",
            class_ms(Class::Edit),
            "ms",
            by_class.get(&Class::Edit).map_or(0, Vec::len),
        ),
        (
            "engine.serve_cold_ms",
            class_ms(Class::Cold),
            "ms",
            by_class.get(&Class::Cold).map_or(0, Vec::len),
        ),
        ("cache.lookup_us", mean(&lookups), "us", lookups.len()),
        ("cone.reused_per_edit", mean(&reused), "count", reused.len()),
        ("json.serialize_ms", mean(&json_ms), "ms", json_ms.len()),
        ("json.response_kib", mean(&json_kib), "KiB", json_kib.len()),
    ]);
    Ok(Layers {
        checkpoint_load_ms: median(&loads),
        engine_p50_ms: median(&all),
        values,
    })
}
