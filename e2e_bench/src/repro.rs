//! Reproducers for the two program faults the workloads step around
//! (`--repro bench-roundtrip`, `--repro keepalive`); see the README.

use std::time::Instant;

use deepseq_netlist::bench_io::{parse_bench_named, write_bench};

use crate::client::{Conn, Server};
use crate::Args;

/// `write_bench` output of each generated design, parsed back.
fn bench_roundtrip() -> bool {
    let mut all_ok = true;
    for netlist in deepseq_data::designs::all_designs() {
        let text = write_bench(&netlist);
        match parse_bench_named(&text, netlist.name()) {
            Ok(_) => println!("{}: .bench round trip ok", netlist.name()),
            Err(e) => {
                all_ok = false;
                println!("{}: .bench round trip fails: {e}", netlist.name());
            }
        }
    }
    all_ok
}

/// Two kept-alive connections to a default server: the second waits for
/// the first to go idle.
fn keepalive(args: &Args) -> Result<bool, String> {
    let model = deepseq_core::DeepSeq::new(deepseq_core::DeepSeqConfig::default());
    std::fs::create_dir_all(&args.workdir).map_err(|e| e.to_string())?;
    let checkpoint = args.workdir.join("repro_model.dsqm");
    std::fs::write(&checkpoint, model.save_binary()).map_err(|e| e.to_string())?;
    let server = Server::spawn(&args.server, &checkpoint).map_err(|e| e.to_string())?;
    let mut first = Conn::open(server.addr).map_err(|e| e.to_string())?;
    let time = |conn: &mut Conn| -> Result<f64, String> {
        let start = Instant::now();
        conn.request("GET", "/healthz", b"")
            .map_err(|e| e.to_string())?;
        Ok(start.elapsed().as_secs_f64() * 1e3)
    };
    let a = time(&mut first)?;
    let mut second = Conn::open(server.addr).map_err(|e| e.to_string())?;
    let b = time(&mut second)?;
    println!("first kept-alive connection: /healthz in {a:.1} ms");
    println!("second kept-alive connection: /healthz in {b:.1} ms");
    drop(first);
    server.stop(second).map_err(|e| e.to_string())?;
    Ok(b < 1000.0)
}

/// Runs one reproducer; `true` when the fault did not show.
pub fn run(args: &Args, which: &str) -> Result<bool, String> {
    match which {
        "bench-roundtrip" => Ok(bench_roundtrip()),
        "keepalive" => keepalive(args),
        other => Err(format!(
            "unknown reproducer {other:?} (bench-roundtrip | keepalive)"
        )),
    }
}
