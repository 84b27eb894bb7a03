//! `repro`: dispatch over the experiment registry.
//!
//! - `repro <name>… [--paper]` — print the named tables / figures;
//! - `repro all [--paper]` — every one of them, in registry order;
//! - `repro trace <out.json>` — one traced Cholesky run as a Perfetto timeline;
//! - `repro gate` — the armed-but-idle recovery check (non-zero exit on failure).
//!
//! `--paper` selects paper-sized matrices; the default is the small scale.

use rapid_bench::experiments::{recovery_gate, write_trace, EXPERIMENTS};
use rapid_bench::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment>... [--paper]\n       repro all [--paper]\n       \
         repro trace <out.json>\n       repro gate\n\nexperiments:"
    );
    for e in &EXPERIMENTS {
        eprintln!("  {:<9} {}", e.name, e.about);
    }
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--paper").collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        [] => usage(),
        ["trace", path] => write_trace(path),
        ["gate"] => recovery_gate(),
        _ => {
            let picked: Vec<_> = if args == ["all"] {
                EXPERIMENTS.iter().collect()
            } else {
                let find = |n: &&str| {
                    EXPERIMENTS.iter().find(|e| e.name == *n).unwrap_or_else(|| {
                        eprintln!("repro: no experiment named {n:?}");
                        usage()
                    })
                };
                args.iter().map(find).collect()
            };
            let scale = Scale::from_args();
            for e in &picked {
                if picked.len() > 1 {
                    println!("\n================ {} ================\n", e.name);
                }
                (e.run)(scale);
            }
        }
    }
}
