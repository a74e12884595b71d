//! Steady end-to-end and per-layer benchmark of SPHINCS+-128f signing,
//! from the wire to the hash core.
//!
//! ```text
//! hero-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `interactive-sign`, `bulk-sign-multikey`,
//! `verify-beside-sign` (see `perfbench/README.md`). With `--trace 0` the
//! run measures the end-to-end metrics; with `--trace 1` it replays the
//! workload's inputs through each layer's public entry points and prints
//! the per-layer ledger. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Run it from
//! the repository root.

mod inputs;
mod ledger;
mod measure;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use hero_sphincs::tier;

use workloads::{Workload, CLIENTS};

#[global_allocator]
static ALLOCATOR: measure::CountingAlloc = measure::CountingAlloc;

/// Environment variables that change which program is measured; a run
/// with any of them set could silently measure a different program.
const PINNED_ENV: [&str; 3] = ["HERO_FAULTS", "HERO_HASH_TIER", "HERO_WORKERS"];

/// Fresh processes timed per run for `setup_s`; the median is reported.
const SETUP_PROBES: usize = 9;

/// Where the host fingerprint and span files go, relative to the
/// repository root.
pub const OUT_DIR: &str = "perfbench/out";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_probe = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be >= 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
        setup_probe,
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a metric that cannot be
                // computed reads 0 and the run is marked incorrect.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                    m.name, m.unit
                )
            })
            .collect();
        let correct = self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite());
        format!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// CPU model, hardware threads, engine workers and resolved hash tiers.
fn fingerprint(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        r#"{{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "cpu_model": "{}", "nproc": {nproc}, "workers": {}, "clients": {CLIENTS}, "hash_tiers": "{}"}}"#,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu.replace(['"', '\\'], ""),
        hero_sign::par::default_workers(),
        tier::description(),
    )
}

/// Times `SETUP_PROBES` fresh processes from their start of set-up until
/// they are ready to serve. Returns the median in seconds, raw and at
/// reference host speed (each probe scaled by the speed measured right
/// after it).
fn setup_seconds(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut raw = Vec::with_capacity(SETUP_PROBES);
    let mut adjusted = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let (t0, steal0) = (std::time::Instant::now(), measure::steal_seconds());
        let out = Command::new(&exe)
            .args([
                "--workload",
                args.workload.name(),
                "--seed",
                &args.seed.to_string(),
            ])
            .arg("--setup-probe")
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let secs = stdout
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|_| out.status.success())
            .ok_or(format!("setup probe failed: {}", out.status))?;
        let available = measure::availability(t0.elapsed(), measure::steal_seconds() - steal0);
        raw.push(secs);
        adjusted.push(secs * available * measure::speed_index());
    }
    Ok((measure::median(&mut raw), measure::median(&mut adjusted)))
}

/// The `--setup-probe` child: set up once, report, exit.
fn setup_probe(args: &Args) -> Result<(), String> {
    let t0 = std::time::Instant::now();
    let secs = match args.workload {
        Workload::Bulk => {
            let engine = workloads::start_bulk(args.seed)?;
            let secs = t0.elapsed();
            drop(engine);
            secs
        }
        workload => {
            let rig = workloads::start_server(args.seed, workload)?;
            let secs = t0.elapsed();
            rig.server.shutdown();
            secs
        }
    };
    println!("setup_s {}", secs.as_secs_f64());
    Ok(())
}

/// The end-to-end metrics of one window. With `at_reference_speed`,
/// wall-clock times are scaled by the window's mean host capacity (CPU
/// speed times the share of CPU time the guest got) and CPU times by its
/// mean CPU speed, so the figures are those of the reference host at its
/// typical speed; otherwise they are as the clock read them.
pub fn end_to_end(setup_s: f64, tally: &workloads::Tally, at_reference_speed: bool) -> Vec<Metric> {
    let (capacity, speed) = if at_reference_speed {
        (tally.capacity, tally.speed)
    } else {
        (1.0, 1.0)
    };
    let sorted = |lat: &[Duration]| {
        let mut v: Vec<Duration> = lat.iter().map(|d| d.mul_f64(capacity)).collect();
        v.sort();
        v
    };
    let (sign_lat, verify_lat) = (sorted(&tally.sign_lat), sorted(&tally.verify_lat));
    let q = |v: &[Duration], p: f64| {
        if v.is_empty() {
            f64::NAN
        } else {
            measure::quantile_ms(v, p)
        }
    };
    let secs = tally.wall.as_secs_f64() * capacity;
    let cpu_s = tally.cpu_s * speed;
    vec![
        metric("setup_s", setup_s, "s"),
        metric("sign_per_s", tally.signs as f64 / secs, "1/s"),
        metric("sign_p50_ms", q(&sign_lat, 0.5), "ms"),
        metric("sign_p99_ms", q(&sign_lat, 0.99), "ms"),
        metric("verify_per_s", tally.verified as f64 / secs, "1/s"),
        metric("verify_p50_ms", q(&verify_lat, 0.5), "ms"),
        metric("verify_p99_ms", q(&verify_lat, 0.99), "ms"),
        metric("cpu_ms_per_sign", cpu_s * 1e3 / tally.signs as f64, "ms"),
        metric("peak_rss_mb", measure::peak_rss_mb(), "MiB"),
    ]
}

fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        return ledger::run(args);
    }
    let (setup_raw, setup_s) = setup_seconds(args)?;
    let sizes = workloads::Sizes::new(args.seconds as f64);
    let mut prepared = workloads::prepare(args.workload, args.seed, sizes)?;
    let (tally, mismatches) = prepared.window(0.0..1.0, None, None, true);
    if let workloads::Rig::Server(rig) = &prepared.rig {
        rig.server.shutdown();
    }
    eprintln!(
        "perfbench: {} signs, {} verified, {:.2} s wall, {} failed, {} oracle mismatches, mean host speed {:.4}, capacity {:.4}",
        tally.signs,
        tally.verified,
        tally.wall.as_secs_f64(),
        tally.failed,
        mismatches,
        tally.speed,
        tally.capacity
    );
    let wall_clock: Vec<String> = end_to_end(setup_raw, &tally, false)
        .iter()
        .map(|m| format!("{}={:.4}", m.name, m.value))
        .collect();
    eprintln!("perfbench: wall-clock figures {}", wall_clock.join(" "));
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed + mismatches,
        metrics: end_to_end(setup_s, &tally, true),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: hero-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it changes the measured program");
        return ExitCode::from(2);
    }
    if args.setup_probe {
        return match setup_probe(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench setup probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let host = fingerprint(&args);
    eprintln!("perfbench host: {host}");
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            format!(
                "{OUT_DIR}/{}-seed{}-trace{}.host.json",
                args.workload.name(),
                args.seed,
                u8::from(args.trace)
            ),
            format!("{host}\n"),
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the host fingerprint: {e}");
        return ExitCode::FAILURE;
    }
    match run(&args) {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
