//! The paper's evaluation and this repo's ablations, one subcommand
//! per table/figure (see [`tulkun_bench::FIGURES`]).
//!
//! Usage:
//!   `figures <name>|all [--scale tiny|paper] [--datasets a,b,c]
//!                       [--updates N] [--scenes N]`
//!
//! Every run is held to the list its entry declares: emitting a figure
//! id that is not listed, or not emitting a listed one, fails the run.

use std::process::ExitCode;
use tulkun_bench::{report::take_emitted, Cli, FIGURES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let selected: Vec<_> = FIGURES
        .iter()
        .filter(|(n, ..)| name == "all" || name == *n)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|(n, ..)| *n).collect();
        eprintln!("usage: figures <name>|all [--scale tiny|paper] [--datasets a,b,c] [--updates N] [--scenes N]");
        eprintln!("names: {}", names.join(" "));
        return ExitCode::FAILURE;
    }
    let cli = Cli::parse(&args[1..]);
    for (name, run, ids) in selected {
        run(&cli);
        let emitted = take_emitted();
        if emitted != *ids {
            eprintln!("figures: {name} emitted {emitted:?}, FIGURES lists {ids:?}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
