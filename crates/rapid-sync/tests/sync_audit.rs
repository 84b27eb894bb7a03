//! Source audit of the atomics discipline in the runtime crates, the two
//! rules clippy has no lint for:
//!
//! * `Relaxed` appears only in a file with a `// sync-audit:` header that
//!   justifies its memory-ordering discipline;
//! * the six model-checked modules use no raw `std::sync::atomic` type
//!   (no word beginning `Atomic`), so the model checker sees every
//!   operation through the `rapid-sync` shim.
//!
//! It reads every line above a file's `mod tests {` that does not start
//! with `//` and matches whole words, with no lexer: a word inside a string
//! literal or a block comment can raise a false alarm, never hide a use.

use std::path::{Path, PathBuf};

const CRATES: [&str; 7] = [
    "rapid-rt",
    "rapid-machine",
    "rapid-sched",
    "rapid-verify",
    "rapid-trace",
    "rapid-sparse",
    "rapid-sync",
];

const MODEL_CHECKED: [&str; 6] = [
    "rapid-trace/src/ring.rs",
    "rapid-machine/src/mailbox.rs",
    "rapid-machine/src/machine.rs",
    "rapid-machine/src/rma.rs",
    "rapid-machine/src/pool.rs",
    "rapid-machine/src/wait.rs",
];

fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !c.is_alphanumeric() && c != '_')
}

/// Each line of `text` that breaks a rule, as `path:line: source`.
fn violations(path: &str, text: &str) -> Vec<String> {
    let audited = text.lines().any(|l| l.trim_start().starts_with("// sync-audit:"));
    let model_checked = MODEL_CHECKED.iter().any(|m| path.ends_with(m));
    let code = text.lines().take_while(|l| !l.contains("mod tests {"));
    let code = code.enumerate().filter(|(_, l)| !l.trim_start().starts_with("//"));
    // Every std atomic type is named `Atomic…`; the shim's are `SyncAtomic…`.
    code.filter(|(_, l)| {
        (!audited && words(l).any(|w| w == "Relaxed"))
            || (model_checked
                && (l.contains("sync::atomic") || words(l).any(|w| w.starts_with("Atomic"))))
    })
    .map(|(i, l)| format!("{path}:{}: {}", i + 1, l.trim()))
    .collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            // Command-line tools are outside the runtime.
            if !path.ends_with("bin") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn runtime_sources_keep_the_atomics_discipline() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut files = Vec::new();
    for c in CRATES {
        rust_files(&crates.join(c).join("src"), &mut files);
    }
    assert!(files.len() >= 55, "read only {} source files", files.len());
    let paths: Vec<String> = files.iter().map(|f| f.display().to_string()).collect();
    for m in MODEL_CHECKED {
        assert!(paths.iter().any(|p| p.ends_with(m)), "model-checked module {m} not found");
    }
    let bad: Vec<String> = files
        .iter()
        .zip(&paths)
        .flat_map(|(f, p)| violations(p, &std::fs::read_to_string(f).unwrap()))
        .collect();
    assert!(bad.is_empty(), "atomics discipline broken:\n{}", bad.join("\n"));
}

#[test]
fn the_matcher_flags_code_words_only() {
    let plain = "crates/rapid-sched/src/lib.rs";
    let mailbox = "crates/rapid-machine/src/mailbox.rs";
    assert_eq!(violations(plain, "x.load(Ordering::Relaxed);").len(), 1);
    assert_eq!(violations(mailbox, "let a = AtomicU64::new(0);").len(), 1);
    assert!(violations(mailbox, "let a = SyncAtomicU64::new(0);").is_empty());
    assert!(violations(plain, "    // a Relaxed load would race here").is_empty());
    assert!(violations(plain, "// sync-audit: a counter\nx.load(Relaxed);").is_empty());
    assert!(violations(plain, "mod tests {\nx.load(Relaxed);").is_empty());
}
