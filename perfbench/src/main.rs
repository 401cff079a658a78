//! Time-to-ε benchmark of the dpc runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-rr-1k|cold-ring-1k|scale-torus-10k|events-rr-1k|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Prints every metric by name with its unit, then one JSON result line,
//! and writes the full result (host provenance, spreads, failures, span
//! totals) under `--out`. Exits 1 when any operation failed a correctness
//! gate, 2 on a usage error. See `perfbench/README.md` for the
//! definitions.

mod cold;
mod eps;
mod events;
mod host;
mod layers;
mod reference;
mod report;
mod stats;
mod trace;
mod workload;

use host::Host;
use report::Report;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workload::Workload;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: PathBuf,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "error: {msg}\nusage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 20,
        traced: false,
        out: PathBuf::from("perfbench/out"),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?]
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let host = Host::probe();
    let shards = host::cores();
    println!(
        "host: {} cores, {}, L2 {}, commit {}; reactor pinned to {shards} shards, engine to 1 thread",
        host.cores, host.cpu_model, host.l2, host.commit
    );
    let mut any_failed = false;
    for &w in &args.workloads {
        let mut tracer = Tracer::new(args.traced);
        let mut report = Report::default();
        let seconds = args.seconds as f64;
        let outcome = match w {
            Workload::EventsRr1k => {
                events::run(args.seed, seconds, args.traced, &mut tracer, &mut report);
                Ok(())
            }
            _ => cold::run(w, args.seed, seconds, args.traced, &mut tracer, &mut report),
        };
        if let Err(e) = outcome {
            eprintln!("error: {}: set-up or reference pass failed: {e}", w.name());
            return ExitCode::from(1);
        }
        report::print_human(w.name(), false, &report);
        if args.traced {
            report::print_human(w.name(), true, &report);
            for (name, t) in tracer.totals() {
                println!(
                    "span {name:<40} count={:<6} total={:.6} s self={:.6} s",
                    t.count, t.total_s, t.self_s
                );
            }
        }
        if let Err(e) = write_results(&args, w, &host, &report, &tracer) {
            eprintln!(
                "warning: could not write results under {}: {e}",
                args.out.display()
            );
        }
        any_failed |= report.failed > 0;
        println!("{}", report::result_line(args.traced, &report));
    }
    if any_failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn write_results(
    args: &Args,
    w: Workload,
    host: &Host,
    report: &Report,
    tracer: &Tracer,
) -> std::io::Result<()> {
    fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.traced)
    );
    let body = report::result_file(
        w.name(),
        args.seed,
        args.seconds,
        args.traced,
        host,
        report,
        tracer,
    );
    fs::write(args.out.join(format!("{stem}.json")), body)?;
    if args.traced {
        let mut spans = std::io::BufWriter::new(fs::File::create(
            args.out.join(format!("{stem}-spans.jsonl")),
        )?);
        tracer.write_jsonl(&mut spans)?;
        std::io::Write::flush(&mut spans)?;
    }
    Ok(())
}
