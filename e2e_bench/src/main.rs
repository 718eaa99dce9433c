//! End-to-end benchmark of the DeepSeq serving and training stack.
//!
//! ```text
//! deepseq-e2e-bench --server <deepseq-serve binary> --workdir <dir>
//!     --workload <paper_cold|edit_mix|pretrain> --seed <n> --seconds <s> --trace <0|1>
//! deepseq-e2e-bench --server <binary> --workdir <dir> --selfcheck
//! deepseq-e2e-bench --server <binary> --workdir <dir> --repro <bench-roundtrip|keepalive>
//! ```
//!
//! Prints one line per metric, then a JSON result object as the last line
//! of standard output. See `README.md` beside this crate for the workloads,
//! metrics and checks; `run.sh` builds and runs it from the repository
//! root.

mod client;
mod inputs;
mod pretrain;
mod report;
mod repro;
mod serving;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

pub const WORKLOADS: [&str; 3] = ["paper_cold", "edit_mix", "pretrain"];

pub struct Args {
    pub server: PathBuf,
    pub workdir: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub selfcheck: bool,
    pub repro: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        server: PathBuf::new(),
        workdir: PathBuf::new(),
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        selfcheck: false,
        repro: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--server" => args.server = value.into(),
            "--workdir" => args.workdir = value.into(),
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => args.trace = number(&value)? != 0.0,
            "--repro" => args.repro = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.server.as_os_str().is_empty() || args.workdir.as_os_str().is_empty() {
        return Err("--server and --workdir are required".into());
    }
    if !args.selfcheck && args.repro.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Records per-layer metrics of layers a workload does not exercise.
pub fn zero_layers(report: &mut Report, names: &[&'static str]) {
    for &name in names {
        let unit = match name.rsplit('_').next() {
            Some("ms") => "ms",
            Some("us") => "us",
            Some("kib") => "KiB",
            Some("ratio") => "ratio",
            _ => "count",
        };
        report.metric(name, 0.0, unit, 0);
    }
}

fn run_workload(args: &Args, workload: &str) -> Result<Report, String> {
    let mut report = Report::default();
    match workload {
        "pretrain" => pretrain::run(args, &mut report)?,
        _ => serving::run(args, workload, &mut report)?,
    }
    Ok(report)
}

fn main() -> ExitCode {
    client::clear_program_env();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck(args);
    }
    if let Some(which) = &args.repro {
        return match repro::run(&args, which) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    match run_workload(&args, &args.workload) {
        Ok(report) => {
            report.print(&args.workload);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs every workload briefly with all checks, then shows that the checks
/// reject perturbed outputs.
fn selfcheck(args: Args) -> ExitCode {
    let mut ok = true;
    for workload in WORKLOADS {
        let brief = Args {
            workload: workload.to_string(),
            seconds: 0.1,
            trace: false,
            selfcheck: false,
            repro: None,
            server: args.server.clone(),
            workdir: args.workdir.clone(),
            seed: args.seed,
        };
        match run_workload(&brief, workload) {
            Ok(report) => {
                let passed = report.errors.is_empty() && report.failed == 0;
                println!(
                    "selfcheck {workload}: {} ({} operations, {} failed, {} check errors)",
                    if passed { "ok" } else { "FAILED" },
                    report.attempted,
                    report.failed,
                    report.errors.len()
                );
                for e in &report.errors {
                    println!("  {e}");
                }
                ok &= passed;
            }
            Err(e) => {
                println!("selfcheck {workload}: FAILED ({e})");
                ok = false;
            }
        }
    }
    for (name, result) in perturbation_checks(args.seed) {
        println!("selfcheck {name}: {}", if result { "ok" } else { "FAILED" });
        ok &= result;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `body` with the lowest bit of its first `tr` prediction flipped.
fn flip_first_prediction(body: &str) -> String {
    let start = body.find("\"tr\":").expect("body has tr") + 5;
    let start = start
        + body[start..]
            .find(|c: char| c.is_ascii_digit())
            .expect("a number");
    let end = start
        + body[start..]
            .find(|c: char| !(c.is_ascii_digit() || "-.eE".contains(c)))
            .expect("number ends");
    let value: f32 = body[start..end].parse().expect("a prediction");
    let flipped = f32::from_bits(value.to_bits() ^ 1);
    format!("{}{flipped}{}", &body[..start], &body[end..])
}

/// Each check accepts the true output and rejects a perturbed one.
fn perturbation_checks(seed: u64) -> Vec<(&'static str, bool)> {
    use deepseq_core::{DeepSeq, DeepSeqConfig, EvalMetrics};
    use deepseq_serve::{Engine, EngineOptions, InferenceModel, ServeRequest};

    // A served response through the `Verifier` the runs use: as served,
    // with one prediction bit flipped, and filed under a request that has
    // no reference.
    let inputs = inputs::edit_mix(seed);
    let model = DeepSeq::new(DeepSeqConfig::default());
    let text = &inputs.circuits[0].text;
    let aig = deepseq_netlist::parse_aiger(text).expect("inputs parse");
    let engine = Engine::new(
        InferenceModel::from_model(&model).expect("fresh model freezes"),
        EngineOptions::default(),
    );
    let response = engine
        .serve_batch(vec![ServeRequest {
            id: 0,
            workload: deepseq_sim::Workload::uniform(aig.num_pis(), 0.5),
            aig,
            init_seed: 9,
        }])
        .remove(0);
    let body = deepseq_serve::json::response_to_json(&response, false);
    let want = verify::reference(&model, text, 9).expect("reference");
    let verdict = |key: (usize, u64), body: &str| {
        let mut verifier = verify::Verifier::new([((0, 9), want.clone())].into());
        verifier.observe(key, body.as_bytes().to_vec());
        verifier.finish().is_empty()
    };
    let accepts = verdict((0, 9), &body);
    let rejects_flip = !verdict((0, 9), &flip_first_prediction(&body));
    let rejects_unknown = !verdict((0, 8), &body);

    // Learning: a trained error above the constant predictor's fails.
    let constant = EvalMetrics {
        pe_tr: 0.09,
        pe_lg: 0.40,
    };
    let untrained = EvalMetrics {
        pe_tr: 0.30,
        pe_lg: 0.30,
    };
    let good = EvalMetrics {
        pe_tr: 0.06,
        pe_lg: 0.20,
    };
    let above_constant = EvalMetrics {
        pe_tr: 0.10,
        ..good
    };
    vec![
        ("bitwise check accepts a served response", accepts),
        (
            "bitwise check rejects one flipped prediction bit",
            rejects_flip,
        ),
        (
            "bitwise check rejects a response it has no reference for",
            rejects_unknown,
        ),
        (
            "learning check accepts errors below both baselines",
            verify::learning_check(good, untrained, constant).is_ok(),
        ),
        (
            "learning check rejects PE_TR above the constant predictor",
            verify::learning_check(above_constant, untrained, constant).is_err(),
        ),
        (
            "simulator matches closed-form labels",
            verify::simulator_check(seed).is_ok(),
        ),
    ]
}
