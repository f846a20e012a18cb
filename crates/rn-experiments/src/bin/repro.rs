//! `repro` — regenerate every experiment table from EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! repro                 # run every experiment with the full configuration
//! repro --quick         # small sizes (seconds instead of minutes)
//! repro e2 e4           # run only the listed experiment ids
//! repro --list          # list experiment ids
//! ```

use rn_experiments::experiments::{run_all, run_by_id, EXPERIMENT_IDS};
use rn_experiments::SweepSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for (id, name) in EXPERIMENT_IDS {
            println!("{id:>4}  {name}");
        }
        return;
    }

    // Sizes and seeds of every sweeping experiment; the worker count
    // resolves per batch (`RN_THREADS` overrides it) and never changes a
    // table.
    let config = if args.iter().any(|a| a == "--quick") {
        SweepSpec::new("repro")
            .sizes(&[8, 16, 32, 64])
            .seeds(&[1, 2])
    } else {
        SweepSpec::new("repro")
            .sizes(&[8, 16, 32, 64, 128, 256, 512])
            .seeds(&[1, 2, 3, 4, 5])
    };

    let requested: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let tables = if requested.is_empty() {
        run_all(&config)
    } else {
        let mut tables = Vec::new();
        for id in requested {
            match run_by_id(id, &config) {
                Some(mut t) => tables.append(&mut t),
                None => {
                    eprintln!("unknown experiment id: {id} (use --list)");
                    std::process::exit(2);
                }
            }
        }
        tables
    };

    for table in tables {
        println!("{table}");
        println!();
    }
}

fn print_help() {
    println!(
        "repro — regenerate the experiment tables\n\
         \n\
         USAGE:\n\
         \trepro [--quick] [ids...]\n\
         \trepro --list\n\
         \n\
         OPTIONS:\n\
         \t--quick  use small graph sizes (fast smoke run)\n\
         \t--list   list the available experiment ids"
    );
}
