//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--fig ID]... [--full] [--csv DIR]
//! ```
//!
//! Every output is one entry of [`FIGURES`]: each `--fig ID` selects one,
//! no `--fig` selects them all, and they print in the table's order. The
//! ids are the paper's figure numbers, `table1`, the ablations
//! (`namespaces`, `collectives`, `faults`), the PGAS extension (`pgas`),
//! and three views of the system itself:
//!
//! * `profile` runs Graph 500 under the causal profiler and prints the
//!   per-peer channel matrix, the wait-state decomposition, and the
//!   substrate pressure counters for the Default vs. Proposed designs;
//! * `health` runs a 32-rank mixed job under the always-on telemetry
//!   layer, round-trips its metrics JSON and flight dump, and prints the
//!   health evaluator's verdict plus the job-total metrics;
//! * `scaling` runs the mixed job on the task execution engine at growing
//!   rank counts (to 1024 quick, 4096 with `--full`, best of 3 a point)
//!   and prints the wall-clock growth against the rank-count growth, then
//!   the container list's publish and scan cost at 10^3 / 10^5 / 10^6
//!   ranks.
//!
//! Without `--full` the CI-sized effort is used (seconds per figure);
//! `--full` switches to the paper-shaped deployment (256 ranks, scale-16
//! graphs) and takes minutes.

use std::io::Write;

use cmpi_bench::{experiments as ex, Effort, Table};

/// Makes the tables of one output.
type Driver = fn(&Effort) -> Vec<Table>;

/// Every output, in print order: its `--fig` id and its driver.
/// Dispatch and the usage text both read this table; `scripts/results.sh`
/// takes the ids from the usage text, so a new id is pinned by
/// `RESULTS.txt` (every id but `scaling`) from its first run.
const FIGURES: &[(&str, Driver)] = &[
    ("1", |e| vec![ex::fig01(e)]),
    ("3a", |e| vec![ex::fig03a(e)]),
    ("3bc", |e| {
        let (lat, bw) = ex::fig03bc(e);
        vec![lat, bw]
    }),
    ("table1", |e| vec![ex::table1(e)]),
    ("7a", |e| vec![ex::fig07a(e)]),
    ("7b", |e| vec![ex::fig07b(e)]),
    ("7c", |e| vec![ex::fig07c(e)]),
    ("8", ex::fig08),
    ("9", ex::fig09),
    ("10", ex::fig10),
    ("11", |e| vec![ex::fig11(e)]),
    ("12", |e| vec![ex::fig12(e)]),
    ("namespaces", |e| vec![ex::ablation_namespaces(e)]),
    ("collectives", |e| vec![ex::ablation_smp_collectives(e)]),
    ("faults", |e| vec![ex::ablation_faults(e)]),
    ("pgas", |e| vec![ex::ext_pgas(e)]),
    ("profile", ex::profile_tables),
    ("health", ex::health_tables),
    ("scaling", |e| {
        vec![ex::scaling_table(e), ex::container_list_table()]
    }),
];

fn usage_text() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|&(id, _)| id).collect();
    format!(
        "usage: figures [--fig ID]... [--full] [--csv DIR]\n\
         \x20  ids (no --fig runs all): {}",
        ids.join(" ")
    )
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2)
}

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut full = false;
    let mut csv_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fig" => ids.push(args.next().unwrap_or_else(|| usage())),
            "--full" => full = true,
            "--csv" => csv_dir = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if let Some(id) = ids.iter().find(|&id| FIGURES.iter().all(|&(f, _)| f != id)) {
        eprintln!("unknown figure id: {id}");
        usage();
    }
    let e = if full {
        Effort::full()
    } else {
        Effort::quick()
    };
    eprintln!(
        "# effort: graph scale {}, {} ranks on the cluster deployment{}",
        e.graph_scale,
        cmpi_cluster::DeploymentScenario::collective_256(e.hosts_div).num_ranks(),
        if full { " (--full)" } else { "" }
    );

    let out: Vec<Table> = FIGURES
        .iter()
        .filter(|&&(id, _)| ids.is_empty() || ids.iter().any(|w| w == id))
        .flat_map(|&(_, driver)| driver(&e))
        .collect();

    for t in &out {
        println!("{t}");
    }
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        for t in &out {
            let name: String = t
                .title
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect::<String>()
                .trim_matches('_')
                .to_lowercase();
            let path = format!("{dir}/{name}.csv");
            let mut f = std::fs::File::create(&path).expect("create csv");
            f.write_all(t.to_csv().as_bytes()).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_the_usage_lists_each() {
        let usage = usage_text();
        let listed: Vec<&str> = usage.split_whitespace().collect();
        for (i, &(id, _)) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|&(f, _)| f != id),
                "id {id} appears twice"
            );
            assert!(listed.contains(&id), "usage does not list {id}: {usage}");
        }
    }
}
