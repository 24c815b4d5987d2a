//! Re-runs one certification failure from its repro line.
//!
//! ```sh
//! cargo run -p td-conformance --bin repro -- 'repro case=... :: ...'
//! ```
//!
//! Prints the line the re-run produces. Exit status: 1 when the case
//! fails again at the same tick, 0 when it now certifies, 2 when it
//! fails differently or the line cannot be replayed.

use std::process::ExitCode;

use td_conformance::{replay, Repro};

fn main() -> ExitCode {
    let mut line = std::env::args().skip(1).collect::<Vec<_>>().join(" ");
    if line.trim().is_empty() {
        let _ = std::io::stdin().read_line(&mut line);
    }
    let pasted: Repro = match line.parse() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("not a repro line ({e}): {line}");
            return ExitCode::from(2);
        }
    };
    match replay(&pasted.run) {
        Err(e) => {
            eprintln!("cannot replay: {e}");
            ExitCode::from(2)
        }
        Ok(Ok(stats)) => {
            println!("certified: {} queries, no violation", stats.queries);
            ExitCode::SUCCESS
        }
        Ok(Err(again)) => {
            println!("{again}");
            if (again.tick, again.key) == (pasted.tick, pasted.key) {
                ExitCode::from(1)
            } else {
                ExitCode::from(2)
            }
        }
    }
}
