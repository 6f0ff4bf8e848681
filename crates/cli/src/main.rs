//! The `incprof` binary: thin shell over [`incprof_cli`].
//!
//! Exit status: 0 on success, 2 on usage errors (bad flags, missing
//! arguments), 1 on runtime errors (I/O, JSON, pipeline).

use incprof_cli::CliError;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match incprof_cli::run(&args) {
        Ok(output) => println!("{output}"),
        Err(CliError::Lint(report)) => {
            // The rendered lint report IS the output; no log framing.
            println!("{report}");
            std::process::exit(1);
        }
        Err(e @ CliError::Usage(_)) => {
            incprof_obs::error!("{e}");
            eprintln!("{}", incprof_cli::usage());
            std::process::exit(2);
        }
        Err(e) => {
            incprof_obs::error!("{e}");
            std::process::exit(1);
        }
    }
}
