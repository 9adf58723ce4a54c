//! `e2ebench` — the end-to-end benchmark's command line.
//!
//! ```text
//! e2ebench --workload <paper|chain|scale|serve> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench compare <parent-results> <change-results> [BENCHMARK.json]
//! ```
//!
//! A run prints a context line (workload, seed, host and build stamp,
//! sample counts) and, last, one JSON result line with `correct`,
//! `attempted`, `failed` and `metrics`. Compare mode reads two files of
//! captured run output and prints a verdict per workload and metric.

use std::path::PathBuf;
use std::process::ExitCode;

use e2ebench::{alloc, compare, json, per_layer_report, workloads, Opts, Report};

#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

const WORKLOADS: [&str; 4] = ["paper", "chain", "scale", "serve"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         e2ebench compare <parent-results> <change-results> [BENCHMARK.json]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// The checked-out commit, read from `.git` in the working directory
/// (a loose or packed ref, or a detached HEAD); `unknown` elsewhere.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        Some(name) => read(name).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        }),
        None => Some(head.trim().to_string()),
    };
    commit
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn compare_mode(args: &[String]) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let run = || -> Result<String, String> {
        let parent = compare::read_results(&read(&args[0])?)?;
        let change = compare::read_results(&read(&args[1])?)?;
        let rules =
            compare::read_rules(&read(args.get(2).map_or("BENCHMARK.json", String::as_str))?)?;
        Ok(compare::render(&parent, &change, &rules))
    };
    match run() {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return if args.len() >= 3 {
            compare_mode(&args[1..])
        } else {
            usage()
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        let ok = match (flag.as_str(), value) {
            ("--workload", Some(v)) if WORKLOADS.contains(&v.as_str()) => {
                workload = Some(v.clone());
                true
            }
            ("--seed", Some(v)) => v.parse().map(|s| seed = s).is_ok(),
            ("--seconds", Some(v)) => v.parse().map(|s| seconds = s).is_ok(),
            ("--trace", Some(v)) => match v.as_str() {
                "0" | "1" => {
                    trace = v == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("e2ebench/target"), PathBuf::from);
    let opts = Opts {
        seed,
        seconds,
        work_dir: target.join("e2ebench-work"),
    };

    let mut report = Report::default();
    if trace {
        let (values, tracer) = match workload.as_str() {
            "paper" => workloads::paper::trace(&opts, &mut report),
            "chain" => workloads::chain::trace(&opts, &mut report),
            "scale" => workloads::scale::trace(&opts, &mut report),
            _ => workloads::serve::trace(&opts, &mut report),
        };
        let spans = opts
            .work_dir
            .join(format!("spans-{workload}-seed{seed}.jsonl"));
        match tracer.write_jsonl(&spans) {
            Ok(()) => report.note("spans_file", spans.display()),
            Err(e) => eprintln!("[e2ebench] could not write spans: {e}"),
        }
        per_layer_report(&values, &mut report);
    } else {
        let e2e = match workload.as_str() {
            "paper" => workloads::paper::run(&opts, &mut report),
            "chain" => workloads::chain::run(&opts, &mut report),
            "scale" => workloads::scale::run(&opts, &mut report),
            _ => workloads::serve::run(&opts, &mut report),
        };
        e2e.into_report(&mut report);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{}", json::string(k), json::string(v)))
        .collect();
    println!(
        "{{\"context\":{{\"workload\":{},\"seed\":{seed},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"workers\":{},\"profile\":{},\"rustc\":{},\"commit\":{},\"notes\":{{{}}}}}}}",
        json::string(&workload),
        json::num(seconds),
        u8::from(trace),
        workloads::workers(),
        json::string(env!("E2EBENCH_PROFILE")),
        json::string(env!("E2EBENCH_RUSTC")),
        json::string(&git_commit()),
        notes.join(",")
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(m.name),
                json::num(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
