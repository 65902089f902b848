//! Runs the paper's table and figure reproductions:
//! `experiments <name>|all`, at the scale `AUTOCE_SCALE` sets (see
//! [`ce_bench::Scale`]). An unknown name prints the list of names and
//! exits non-zero.

use ce_bench::experiments::{
    fig1, fig10, fig11, fig12, fig13, fig7, fig8, fig9, table1, table2, table3, table4, table5,
};
use ce_bench::Scale;
use std::process::ExitCode;

/// An experiment's name and entry point.
type Experiment = (&'static str, fn(Scale));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 13] = [
    ("table1", table1::run),
    ("fig1", fig1::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("table5", table5::run),
];

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_default();
    let chosen: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(n, _)| name == "all" || *n == name)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: experiments <name>|all\nnames: {}", names.join(" "));
        return ExitCode::FAILURE;
    }
    let scale = Scale::from_env();
    for (n, run) in chosen {
        eprintln!("[experiments] {n} at AUTOCE_SCALE={}", scale.0);
        run(scale);
    }
    ExitCode::SUCCESS
}
