// Experiment harness binary: aborting on unexpected state is the correct failure mode.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! `terradir-bench <experiment> [flags]` — regenerates one figure, table,
//! ablation or extension experiment of the TerraDir reproduction (see
//! DESIGN.md §4 for the index). Each experiment is one module here; its
//! `run` prints a TSV report plus `# shape[PASS|FAIL]` lines, and the
//! process exits 1 if any shape check failed.

mod ablate_cache;
mod ablate_digests;
mod ablate_hysteresis;
mod ablate_static;
mod antientropy;
mod chaos;
mod churn;
mod durability;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod heterogeneity;
mod reconverge;
mod resilience;
mod rfact;
mod speed;
mod tab1;
mod tenants;

use terradir_bench::{Args, ShapeChecks};

type Experiment = fn(Args, &mut ShapeChecks);

/// Every experiment, by the name that selects it on the command line.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("ablate_cache", ablate_cache::run),
    ("ablate_digests", ablate_digests::run),
    ("ablate_hysteresis", ablate_hysteresis::run),
    ("ablate_static", ablate_static::run),
    ("antientropy", antientropy::run),
    ("chaos", chaos::run),
    ("churn", churn::run),
    ("durability", durability::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("heterogeneity", heterogeneity::run),
    ("reconverge", reconverge::run),
    ("resilience", resilience::run),
    ("rfact", rfact::run),
    ("speed", speed::run),
    ("tab1", tab1::run),
    ("tenants", tenants::run),
];

/// Prints `err` (if any) and the usage line to stderr, then exits: 0 for
/// a bare `--help` (empty `err`), 2 otherwise.
fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "usage: terradir-bench <experiment> [--full] [--servers N] [--seed S] [--time-mult F]\n\
         experiments: {}",
        names.join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next();
    let Some(&(_, run)) = EXPERIMENTS
        .iter()
        .find(|&&(n, _)| Some(n) == name.as_deref())
    else {
        match name.as_deref() {
            Some("--help" | "-h") => usage(""),
            Some(other) => usage(&format!("unknown experiment {other}")),
            None => usage("missing experiment name"),
        }
    };
    let args = Args::parse_from(argv).unwrap_or_else(|e| usage(&e));
    let mut checks = ShapeChecks::new();
    run(args, &mut checks);
    std::process::exit(i32::from(!checks.finish()));
}
