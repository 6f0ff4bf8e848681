//! Run every table and figure experiment, printing results and writing
//! artifacts into `experiments_out/` (consumed by EXPERIMENTS.md).
//!
//! `all_experiments --only <name>` runs one of them: `table1` (setup &
//! overhead), `table2`..`table6` (discovered-sites tables) or
//! `fig2`..`fig6` (heartbeat figures, ASCII + CSV), in the paper's app
//! order Graph500, MiniFE, MiniAMR, LAMMPS, Gadget2.
//!
//! Environment knobs: `INCPROF_SCALE` (paper|medium|tiny workload
//! size), `INCPROF_PROCS` (ranks for Table I's wall runs, default 1),
//! `INCPROF_REPEATS` (Table I overhead repeats, default 5).

use incprof_bench::apps::{Size, ALL_APPS};
use incprof_bench::figures::{figure, render_ascii, render_csv};
use incprof_bench::tables::{format_table1, site_table, table1};
use std::fs;
use std::path::Path;

/// The experiment named by `--only`, or `None` for all of them.
fn only_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => None,
        [flag, name] if flag == "--only" => Some(name.clone()),
        _ => {
            eprintln!("usage: all_experiments [--only <table1|table2..6|fig2..6>]");
            std::process::exit(2);
        }
    }
}

fn main() {
    let only = only_arg();
    let mut ran = false;
    let mut wanted = |name: &str| {
        let wanted = only.is_none() || only.as_deref() == Some(name);
        ran |= wanted;
        wanted
    };
    let size = Size::from_env();
    let procs: usize = std::env::var("INCPROF_PROCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let repeats: usize = std::env::var("INCPROF_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let out = Path::new("experiments_out");
    fs::create_dir_all(out).expect("create experiments_out");

    // Table I.
    if wanted("table1") {
        eprintln!("[1/3] Table I (overheads; {procs} ranks, best of {repeats})...");
        let t1 = format_table1(&table1(size, procs, repeats));
        println!("{t1}");
        fs::write(out.join("table1.txt"), &t1).expect("write table1");
    }

    // Tables II–VI.
    let table_names = [
        "table2_Graph500",
        "table3_MiniFE",
        "table4_MiniAMR",
        "table5_LAMMPS",
        "table6_Gadget2",
    ];
    for (i, app) in ALL_APPS.into_iter().enumerate() {
        if !wanted(&format!("table{}", i + 2)) {
            continue;
        }
        eprintln!("[2/3] {} sites table...", app.name());
        let text = site_table(app, size);
        println!("{text}");
        fs::write(out.join(format!("{}.txt", table_names[i])), &text).expect("write table");
    }

    // Figures 2–6.
    let fig_names = [
        "fig2_Graph500",
        "fig3_MiniFe",
        "fig4_MiniAmr",
        "fig5_Lammps",
        "fig6_Gadget2",
    ];
    for (i, app) in ALL_APPS.into_iter().enumerate() {
        if !wanted(&format!("fig{}", i + 2)) {
            continue;
        }
        eprintln!("[3/3] {} heartbeat figure...", app.name());
        let fig = figure(app, size);
        let ascii = render_ascii(&fig);
        println!("{ascii}");
        fs::write(out.join(format!("{}.txt", fig_names[i])), &ascii).expect("write fig txt");
        fs::write(out.join(format!("{}.csv", fig_names[i])), render_csv(&fig))
            .expect("write fig csv");
    }

    if !ran {
        eprintln!(
            "all_experiments: no experiment named {:?}",
            only.unwrap_or_default()
        );
        std::process::exit(2);
    }
    println!("artifacts written to {}", out.display());
}
