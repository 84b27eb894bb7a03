//! The paper's tables and figures at small scale, pinned byte for byte.
//!
//! `repro all` runs every experiment of the registry on its fast matrices
//! through the DES and the scheduling stack; no numeric kernel runs and
//! nothing it prints reads a clock, so its stdout is a function of the
//! code. `repro_all.txt` beside this file is that output as recorded. A
//! change that moves a cell on purpose re-records it:
//!
//! ```text
//! cargo run --release -p rapid-bench --bin repro -- all \
//!     > crates/rapid-bench/tests/repro_all.txt
//! ```

use std::process::Command;

#[test]
fn repro_all_is_the_recorded_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).arg("all").output().expect("run repro");
    assert!(out.status.success(), "repro all: {}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("utf-8");
    let want = include_str!("repro_all.txt");
    if got != want {
        let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
        let moved: Vec<String> = g
            .iter()
            .zip(&w)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}:\n  measured {a}\n  recorded {b}", i + 1))
            .collect();
        panic!(
            "repro all moved ({} lines measured, {} recorded):\n{}",
            g.len(),
            w.len(),
            moved.join("\n")
        );
    }
}
