//! End-to-end PCR benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <stream_full_local|stream_low_remote> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the library's public API and prints, last on
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `README.md` beside this crate.

mod check;
mod inputs;
mod report;
mod stats;
mod stream;
mod trace;
mod train;

use pcr_metrics::JsonValue;
use report::Report;
use std::process::ExitCode;
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["stream_full_local", "stream_low_remote"];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("images_per_s", "images/s"),
    ("bytes_per_image", "B/image"),
    ("batch_wait_p50_ms", "ms"),
    ("batch_wait_p95_ms", "ms"),
    ("train_loss_final", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("storage.device_reads", "reads/epoch"),
    ("storage.overfetch_ratio", "ratio"),
    ("storage.cache_hit_rate", "fraction"),
    ("storage.service_ms_p50", "ms"),
    ("storage.service_ms_p95", "ms"),
    ("storage.io_wait_s", "s/epoch"),
    ("storage.read_call_us", "us/call"),
    ("storage.injected_faults", "faults/epoch"),
    ("loader.worker_busy_frac", "fraction"),
    ("loader.stall_frac", "fraction"),
    ("loader.retries", "retries/epoch"),
    ("loader.backoff_s", "s/epoch"),
    ("loader.degraded_records", "records"),
    ("loader.quarantined_records", "records"),
    ("core.open_s", "s"),
    ("core.verify_load_s", "s"),
    ("core.source_build_s", "s"),
    ("core.parse_us_per_record", "us/record"),
    ("jpeg.decode_us_per_image", "us/image"),
    ("jpeg.entropy_us_per_image", "us/image"),
    ("jpeg.reconstruct_us_per_image", "us/image"),
    ("nn.featurize_ms_per_batch", "ms/batch"),
    ("nn.step_ms_per_batch", "ms/batch"),
    ("trace.images_per_s", "images/s"),
    ("trace.untraced_images_per_s", "images/s"),
    ("trace.overhead_frac", "fraction"),
    ("ledger.wall_s", "s"),
    ("ledger.coverage", "fraction"),
    ("ledger.plan_s", "s"),
    ("ledger.read_s", "s"),
    ("ledger.io_wait_s", "s"),
    ("ledger.parse_s", "s"),
    ("ledger.entropy_s", "s"),
    ("ledger.reconstruct_s", "s"),
    ("ledger.assemble_s", "s"),
    ("ledger.featurize_s", "s"),
    ("ledger.step_s", "s"),
];

const USAGE: &str = "usage: pcr-e2e-bench --workload <stream_full_local|stream_low_remote> \
--seed <n> --seconds <s> --trace <0|1>";

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("unknown workload"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--prepare") {
        let seed = args.get(1).and_then(|s| s.parse().ok());
        return match seed.map(inputs::prepare) {
            Some(Ok(())) => ExitCode::SUCCESS,
            Some(Err(e)) => {
                eprintln!("prepare: {e}");
                ExitCode::FAILURE
            }
            None => {
                eprintln!("usage: pcr-e2e-bench --prepare <seed>");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let mut r = Report::default();
    let workload = match opts.workload.as_str() {
        "stream_full_local" => stream::full_local(),
        _ => stream::low_remote(),
    };
    let outcome = stream::run(&workload, opts.seed, opts.seconds, opts.trace, &mut r);
    if let Err(e) = outcome {
        eprintln!("error: {}: {e}", opts.workload);
        return ExitCode::FAILURE;
    }
    if !opts.trace {
        match peak_rss_mib() {
            Some(mib) => r.metric("peak_rss_mib", mib),
            None => r.problem("peak RSS unavailable (no /proc/self/status)"),
        }
    }
    // After the peak RSS is read, so the canary's memory never shows in it.
    match check::canary(&inputs::work_dir().join("canary")) {
        Ok(mismatches) if mismatches.is_empty() => {}
        Ok(mismatches) => {
            // Every image was made or decoded by code whose pixels changed.
            r.failed = r.attempted;
            r.problems.extend(mismatches);
        }
        Err(e) => r.problem(format!("canary: {e}")),
    }
    let expected = if opts.trace { PER_LAYER } else { END_TO_END };
    if r.attempted == 0 {
        r.problem("no work attempted");
    }
    let line = r.result_line(expected);

    for &(name, unit) in expected {
        println!("{name:<32} {:>16.6} {unit}", r.get(name).unwrap_or(0.0));
    }
    for p in &r.problems {
        println!("PROBLEM: {p}");
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut context = vec![
        ("workload".to_string(), JsonValue::str(&opts.workload)),
        ("seed".into(), JsonValue::U64(opts.seed)),
        ("seconds".into(), JsonValue::F64(opts.seconds)),
        ("trace".into(), JsonValue::Bool(opts.trace)),
        ("commit".into(), JsonValue::str(commit())),
        ("build".into(), JsonValue::str(inputs::build_id())),
        ("nproc".into(), JsonValue::U64(nproc as u64)),
        ("cpu_model".into(), JsonValue::str(cpu_model())),
        (
            "run_wall_s".into(),
            JsonValue::F64(started.elapsed().as_secs_f64()),
        ),
        (
            "problems".into(),
            JsonValue::Array(r.problems.iter().map(JsonValue::str).collect()),
        ),
    ];
    context.append(&mut r.notes);
    let context = JsonValue::Object(context).render();
    println!("context {context}");

    let dir = inputs::work_dir().join("results");
    let path = dir.join(format!(
        "{}-s{}-t{}.json",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    let record = format!("{{\"context\":{context},\"result\":{line}}}\n");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("warning: result not written to {}: {e}", path.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let ok = parse(&strings(&[
            "--workload",
            "stream_low_remote",
            "--seed",
            "3",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("stream_low_remote", 3, 20.0, true)
        );
        assert!(parse(&strings(&[
            "--workload",
            "stream_low_remote",
            "--seed",
            "3",
            "--seconds",
            "20"
        ]))
        .is_err());
        assert!(parse(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse(&strings(&[
            "--workload",
            "stream_low_remote",
            "--seed",
            "x",
            "--seconds",
            "2",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse(&strings(&[
            "--workload",
            "stream_low_remote",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse(&strings(&[
            "--workload",
            "stream_low_remote",
            "--seed",
            "1",
            "--seconds",
            "2",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    /// The metric and workload names here and in `BENCHMARK.json` agree.
    #[test]
    fn names_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let entries = json.matches("\"name\"").count();
        assert_eq!(
            entries,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for name in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn ledger_stage_metrics_are_listed() {
        for (_, metric) in stream::LEDGER_STAGES {
            assert!(PER_LAYER.iter().any(|(n, _)| n == metric), "{metric}");
        }
    }
}
