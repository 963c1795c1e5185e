//! `perfbench` — one workload run of the benchmark, as one process.
//!
//! ```text
//! perfbench run   --workload <name> [--seed N] [--size full|tiny]
//! perfbench trace --workload <name> [--seed N] [--size full|tiny] --chrome <path>
//! ```
//!
//! `run` works through the workload's worlds (the first from the seed, the
//! rest derived from it; [`Workload::worlds`]): for each it builds the world
//! several times ([`Workload::setups`], timing each), runs the workload's
//! main call once untraced and checks its output. It prints one JSON line:
//! setup times, total wall and CPU time of the main calls, sessions, peak
//! RSS, digest and checks. `trace` is the traced run of `layers`: it prints
//! the per-layer metrics and writes the spans as a Chrome trace. Workload
//! names: scale-100k, paper-medium, chaos-3way. `perfbench/run.py` drives
//! both and aggregates.

mod layers;
mod sys;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::time::Instant;
use workloads::{Checked, Size, Workload, DEFAULT_SEED};

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    size: Size,
    chrome: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench run|trace --workload scale-100k|paper-medium|chaos-3way \
         [--seed N] [--size full|tiny] [--chrome PATH]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let mode = it.next().unwrap_or_else(|| usage("missing mode"));
    if mode != "run" && mode != "trace" {
        usage(&format!("unknown mode '{mode}'"));
    }
    let mut args = Args {
        mode,
        workload: Workload::Scale100k,
        seed: DEFAULT_SEED,
        size: Size::Full,
        chrome: None,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        let number =
            || value.parse::<u64>().unwrap_or_else(|_| usage(&format!("bad {flag} value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => args.seed = number(),
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => usage(&format!("unknown size '{value}'")),
                }
            }
            "--chrome" => args.chrome = Some(value),
            _ => usage(&format!("unknown flag '{flag}'")),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage("missing --workload"));
    args
}

/// JSON number text; non-finite values become `null`.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// The `"sessions"`, `"digest"` and `"checks"` members of a result line.
fn checked_json(c: &Checked) -> String {
    let checks: Vec<String> =
        c.checks.iter().map(|(n, pass)| format!("{{\"name\":\"{n}\",\"pass\":{pass}}}")).collect();
    format!(
        "\"sessions\":{},\"digest\":\"{}\",\"checks\":[{}]",
        c.sessions,
        c.digest,
        checks.join(",")
    )
}

fn run(args: &Args) -> String {
    let worlds = args.workload.worlds();
    let mut setup_s = Vec::new();
    let (mut wall_s, mut cpu_s, mut sessions) = (0.0, 0.0, 0);
    let mut digests = Vec::with_capacity(worlds);
    let mut checks = Vec::new();
    for i in 0..worlds {
        let seed = workloads::world_seed(args.seed, i);
        let mut world = None;
        for _ in 0..args.workload.setups(args.size) {
            drop(world.take()); // release the previous world before building the next
            let started = Instant::now();
            world = Some(workloads::setup(args.workload, args.size, seed));
            setup_s.push(started.elapsed().as_secs_f64());
        }
        let mut world = world.expect("at least one setup");
        let cpu0 = sys::cpu_secs();
        let started = Instant::now();
        let done = workloads::run(args.workload, args.size, seed, &mut world);
        wall_s += started.elapsed().as_secs_f64();
        cpu_s += sys::cpu_secs() - cpu0;
        let checked = workloads::check(args.workload, args.size, seed, &mut world, &done);
        sessions += checked.sessions;
        digests.push(checked.digest);
        checks.extend(checked.checks);
    }
    let checked =
        Checked { sessions, digest: sys::digest(digests.iter().map(String::as_str)), checks };
    let setups: Vec<String> = setup_s.iter().map(|&s| num(s)).collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"worlds\":{},\"threads\":{},\"setup_s\":[{}],\
         \"wall_s\":{},\"cpu_s\":{},\"peak_rss_mb\":{},{}}}",
        args.workload.name(),
        args.seed,
        worlds,
        workloads::THREADS,
        setups.join(","),
        num(wall_s),
        num(cpu_s),
        num(sys::peak_rss_mb()),
        checked_json(&checked)
    )
}

fn traced(args: &Args) -> String {
    let (metrics, checked, chrome) = layers::traced_run(args.workload, args.size, args.seed);
    if let Some(path) = &args.chrome {
        std::fs::write(path, chrome).unwrap_or_else(|e| usage(&format!("write {path}: {e}")));
    }
    let mut out = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*value));
    }
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"threads\":{},\"metrics\":{{{out}}},{}}}",
        args.workload.name(),
        args.seed,
        workloads::THREADS,
        checked_json(&checked)
    )
}

fn main() {
    let args = parse_args();
    // The library's own thread default reads PSCP_THREADS; pin it too so
    // nothing falls back to the machine's parallelism.
    std::env::set_var("PSCP_THREADS", workloads::THREADS.to_string());
    let line = if args.mode == "run" { run(&args) } else { traced(&args) };
    println!("{line}");
}
