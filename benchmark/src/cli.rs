//! The parent process: spawns one fresh child per sample, pools them,
//! and prints the result.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! run.sh [--seed N] [--quick]                            all six, for people; writes out/result.json
//! run.sh --compare A.json B.json                         two result files against the bounds
//! ```

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use cmpi_core::Json;

use crate::child::{self, ChildArgs, ChildResult};
use crate::kernels;
use crate::report::{self, Fixed, Pool, Section, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workloads::{Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 20_160_816;
/// Round-robin passes of a full run: pooling a workload's samples over
/// the whole run keeps a slow stretch of the host out of any one median.
const PASSES: u32 = 18;

fn fail(msg: &str) -> ! {
    eprintln!("benchmark: {msg}");
    std::process::exit(2)
}

fn usage() -> ! {
    fail(
        "usage: run.sh --workload NAME --seed N --seconds S --trace 0|1\n       \
         run.sh [--seed N] [--quick]\n       run.sh --compare A.json B.json",
    )
}

/// Where traces and the result file go: `out/` next to `run.sh`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Spawn one child and wait for it, at most ten times the time its
/// repetitions are expected to take.
fn spawn(w: Workload, seed: u64, div: u32, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--div", &div.to_string()])
        .args(["--spawned", &child::unix_ns().to_string()])
        .stdout(Stdio::piped());
    if traced {
        let path = out_dir().join(format!("trace_{}.json", w.name()));
        cmd.arg("--trace-out").arg(path);
    }
    let runs = f64::from(1 + u32::from(w.warm_up()) + u32::from(traced));
    let limit = Duration::from_secs_f64(10.0 * w.expected_rep_s() * runs + 5.0);
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > limit => {
                // Stop it and wait until it has ended.
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{}: child killed after {limit:.0?}", w.name()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => return Err(format!("{}: cannot wait for the child: {e}", w.name())),
        }
    };
    let mut text = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut text)
            .map_err(|e| format!("{}: unreadable child output: {e}", w.name()))?;
    }
    if !status.success() {
        return Err(format!("{}: child ended with {status}", w.name()));
    }
    let line = text.lines().last().unwrap_or("");
    Json::parse(line)
        .ok()
        .and_then(|j| ChildResult::from_json(&j))
        .ok_or_else(|| format!("{}: child printed no result", w.name()))
}

fn add_child(pool: &mut Pool, seed: u64, div: u32) {
    let w = pool.workload;
    match spawn(w, seed, div, false) {
        Ok(c) => pool.children.push(c),
        Err(e) => {
            eprintln!("benchmark: {e}");
            pool.lost.push(e);
        }
    }
}

/// What a traced run measures whichever workload it reports: the
/// micro-kernels, and the traced pass — every workload once, in a child
/// that records spans and counts allocations.
fn fixed_part(seed: u64, div: u32) -> Fixed {
    let traced = WORKLOADS
        .into_iter()
        .map(|w| {
            let c = spawn(w, seed, div, true)?;
            match c.failures.first() {
                Some(f) => Err(format!("{}: traced run failed: {f}", w.name())),
                None => Ok((w, c)),
            }
        })
        .collect::<Result<_, String>>()
        .unwrap_or_else(|e| fail(&e));
    Fixed {
        kernels: kernels::run_all(seed, div),
        traced,
    }
}

/// One workload, for the driver: measure for `seconds`, print one line.
fn driver(w: Workload, seed: u64, seconds: f64, trace: bool) {
    let t0 = Instant::now();
    let mut pool = Pool::new(w);
    let fixed = trace.then(|| fixed_part(seed, 1));
    // Fresh children until the time is used up; three at least, so that
    // set-up time and peak memory are medians.
    let min_children = if trace { 1 } else { 3 };
    loop {
        let before = t0.elapsed().as_secs_f64();
        add_child(&mut pool, seed, 1);
        let done = pool.children.len() + pool.lost.len();
        let per_child = t0.elapsed().as_secs_f64() - before;
        if done >= min_children && t0.elapsed().as_secs_f64() + per_child > seconds {
            break;
        }
    }
    let (attempted, failures) = pool.ops();
    for f in failures.iter().take(16) {
        eprintln!("benchmark: FAILED {f}");
    }
    if pool.children.is_empty() {
        fail("no child completed; no result");
    }
    let metrics: Vec<(&str, f64, &str)> = match &fixed {
        None => (END_TO_END.iter().zip(pool.end_to_end()))
            .map(|(m, v)| (m.name, median(&v), m.unit))
            .collect(),
        Some(fixed) => report::per_layer(&pool, fixed)
            .unwrap_or_else(|e| fail(&e))
            .into_iter()
            .zip(PER_LAYER)
            .map(|((k, v), (_, unit, _))| (k, v, unit))
            .collect(),
    };
    eprintln!(
        "benchmark: {} seed {seed}: {} children, {:.1} s; wall as measured {:.6} s, host drift {:.3}",
        w.name(),
        pool.children.len(),
        t0.elapsed().as_secs_f64(),
        median(&pool.raw_walls()),
        median(&pool.drifts()),
    );
    println!(
        "{}",
        report::result_line(attempted, failures.len() as u64, &metrics)
    );
}

/// All six workloads, for people: round-robin passes of fresh children,
/// then the traced pass and the micro-kernels. `--quick` is a smoke run:
/// one pass at a tenth of the sizes, and neither of the other two.
fn full(seed: u64, quick: bool) {
    let t0 = Instant::now();
    let (div, passes) = if quick { (10, 1) } else { (1, PASSES) };
    let mut pools = WORKLOADS.map(Pool::new);
    for pass in 0..passes {
        for pool in &mut pools {
            add_child(pool, seed, div);
        }
        eprintln!(
            "benchmark: pass {}/{passes} done at {:.1} s",
            pass + 1,
            t0.elapsed().as_secs_f64()
        );
    }
    let fixed = (!quick).then(|| fixed_part(seed, div));
    let sections: Vec<Section> = pools
        .into_iter()
        .map(|pool| {
            let per_layer = fixed.as_ref().map_or(Vec::new(), |fixed| {
                report::per_layer(&pool, fixed).unwrap_or_else(|e| fail(&e))
            });
            Section { pool, per_layer }
        })
        .collect();
    report::print_full(&sections);
    let path = out_dir().join("result.json");
    let text = report::full_json(seed, quick, &sections).to_string();
    if let Err(e) =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text + "\n"))
    {
        fail(&format!("cannot write {}: {e}", path.display()));
    }
    let failed: usize = sections.iter().map(|s| s.pool.ops().1.len()).sum();
    println!(
        "\nseed {seed}; {failed} operations failed; wrote {}; {:.1} s",
        path.display(),
        t0.elapsed().as_secs_f64()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

fn compare(a: &Path, b: &Path) {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", p.display())));
        Json::parse(&text).unwrap_or_else(|e| fail(&format!("{}: {e}", p.display())))
    };
    match report::compare(&load(a), &load(b)) {
        Ok((lines, ok)) => {
            lines.iter().for_each(|l| println!("{l}"));
            if !ok {
                println!("B is outside A's bounds");
                std::process::exit(1);
            }
            println!("B is within A's bounds on every pair; counts identical");
        }
        Err(e) => fail(&e),
    }
}

/// Flags that take one value, and flags that take none.
const VALUED: [&str; 8] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--child",
    "--div",
    "--spawned",
    "--trace-out",
];
const BARE: [&str; 1] = ["--quick"];

pub fn main() {
    let mut args = std::env::args().skip(1);
    let mut opts: Vec<(String, String)> = Vec::new();
    while let Some(flag) = args.next() {
        if flag == "--compare" {
            return match (args.next(), args.next(), args.next()) {
                (Some(a), Some(b), None) if opts.is_empty() => {
                    compare(Path::new(&a), Path::new(&b))
                }
                _ => usage(),
            };
        }
        let value = match flag.as_str() {
            f if VALUED.contains(&f) => args.next().unwrap_or_else(|| usage()),
            f if BARE.contains(&f) => String::new(),
            _ => usage(),
        };
        opts.push((flag, value));
    }
    let value = |flag: &str| {
        opts.iter()
            .find(|(k, _)| k == flag)
            .map(|(_, v)| v.as_str())
    };
    let number = |flag: &str| -> Option<u64> {
        value(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("{flag} {v}: not a whole number")))
        })
    };
    let workload = |name: &str| {
        Workload::from_name(name).unwrap_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name()).collect();
            fail(&format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ))
        })
    };
    let seed = number("--seed").unwrap_or(DEFAULT_SEED);

    if let Some(name) = value("--child") {
        let res = child::run(&ChildArgs {
            workload: workload(name),
            seed,
            div: number("--div").unwrap_or(1).max(1) as u32,
            trace_out: value("--trace-out").map(PathBuf::from),
            spawned_unix_ns: value("--spawned")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(child::unix_ns),
        });
        println!("{}", res.to_json());
    } else if let Some(name) = value("--workload") {
        let seconds = number("--seconds").unwrap_or(20) as f64;
        let trace = match value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(_) => usage(),
        };
        driver(workload(name), seed, seconds, trace);
    } else {
        full(seed, value("--quick").is_some());
    }
}
