//! `e2e-bench --workload <web|mail|privops|shared_mix> [--seed N]
//! [--seconds S] [--trace 0|1]`
//!
//! Prints every metric as `name value unit`, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! workload may also be given positionally and `--traced` is the same as
//! `--trace 1`. Exits 1 when any output was wrong, 2 on a usage or
//! set-up error, 101 if the benchmark itself panics.

use e2e_bench::{run, Report, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Web,
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.traced = true,
            name if !name.starts_with('-') && workload.is_none() => workload = Some(arg),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let name = workload.ok_or("no workload given")?;
    args.workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
        return Err(format!(
            "--seconds must be in (0, 3600], not {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    // A panicking worker would leave the other threads waiting on a
    // barrier forever; end the whole run instead.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        std::process::exit(101);
    }));

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(args.workload, args.seed, args.seconds, args.traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e-bench: {}: {e}", args.workload.name());
            std::process::exit(2);
        }
    };
    for m in report.notes.iter().chain(&report.metrics) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("e2e-bench: {p}");
    }
    println!("{}", json(&report));
    if !report.correct() {
        std::process::exit(1);
    }
}
