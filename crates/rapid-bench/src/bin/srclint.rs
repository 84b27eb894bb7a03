//! `srclint` — repo-local source audit for the runtime and planning
//! crates. Grown from a substring scanner into a token-level lint: the
//! file is lexed first (line comments, nested block comments, string /
//! raw-string / char literals), so rules match *code* tokens only and a
//! banned name inside a comment or string can neither trip nor satisfy
//! a rule. CI runs this binary and fails on any offender.
//!
//! Rules:
//!
//! 1. **No `.unwrap()` / `.expect(`** in non-test runtime code. The
//!    runtime crates execute user plans and hold cross-thread locks; a
//!    panic there poisons mutexes and turns a recoverable fault into a
//!    deadlock, and a planner that panics takes its caller down instead
//!    of returning the typed rejection the caller can act on.
//! 2. **No `Ordering::Relaxed` outside audited modules.** Relaxed is
//!    only legal in a file that carries a `// sync-audit:` header
//!    comment justifying its memory-ordering discipline (and naming the
//!    bounded model that checks it, for the lock-free cores).
//! 3. **Every `unsafe` block (and `unsafe impl`) needs a SAFETY
//!    comment** within the 12 lines above it (or on the same line).
//!    `unsafe fn` declarations are exempt — their contract lives in the
//!    `# Safety` doc section, which `missing_docs` keeps present.
//! 4. **No raw `std::sync::atomic` in the six model-checked modules**
//!    (flat ring, mailbox, the ports over it, RMA flag board, worker
//!    pool hand-off, sleep / wake handshake): they
//!    must go through the `rapid-sync` instrumented shim so the model
//!    checker sees every operation.
//!
//! Scope rules: scanning stops at the first `#[cfg(test)]` line of each
//! file (repo convention keeps test modules last) and `src/bin/` trees
//! are exempt (CLI tools may panic on their own arguments).

use std::path::{Path, PathBuf};

/// Crate source roots to scan, relative to this crate's manifest.
const ROOTS: &[&str] = &[
    concat!(env!("CARGO_MANIFEST_DIR"), "/../rapid-rt/src"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/../rapid-machine/src"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/../rapid-sched/src"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/../rapid-verify/src"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/../rapid-trace/src"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/../rapid-sparse/src"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/../rapid-sync/src"),
];

/// Modules whose atomics must go through the `rapid-sync` shim (rule 4),
/// matched by path suffix.
const SHIM_ONLY: &[&str] = &[
    "rapid-trace/src/ring.rs",
    "rapid-machine/src/mailbox.rs",
    "rapid-machine/src/machine.rs",
    "rapid-machine/src/rma.rs",
    "rapid-machine/src/pool.rs",
    "rapid-machine/src/wait.rs",
];

/// How many lines above an `unsafe` block a SAFETY comment may sit.
const SAFETY_WINDOW: usize = 12;

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "bin") {
                continue; // CLI tools may panic on their own arguments
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The lexed file: two views with identical line structure. `code` has
/// every comment and literal blanked to spaces; `comment` has everything
/// *except* comment text blanked. Rules match tokens against `code` and
/// look for SAFETY / sync-audit annotations in `comment`.
struct Views {
    code: Vec<String>,
    comment: Vec<String>,
}

#[derive(Clone, Copy, PartialEq)]
enum Lex {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    CharLit,
}

/// Lex `text` into code/comment views. Handles `//` and nested `/* */`
/// comments, string literals with escapes, raw (and byte / raw-byte)
/// strings with arbitrary `#` counts, char literals, and lifetimes.
fn lex(text: &str) -> Views {
    let mut code = Vec::new();
    let mut comment = Vec::new();
    let mut state = Lex::Code;
    for line in text.lines() {
        let chars: Vec<char> = line.chars().collect();
        let mut code_line = String::with_capacity(chars.len());
        let mut comment_line = String::with_capacity(chars.len());
        let mut i = 0usize;
        // A line comment never continues across lines.
        if state == Lex::LineComment {
            state = Lex::Code;
        }
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                Lex::Code => {
                    if c == '/' && next == Some('/') {
                        state = Lex::LineComment;
                        code_line.push_str("  ");
                        comment_line.push_str("//");
                        i += 2;
                        continue;
                    }
                    if c == '/' && next == Some('*') {
                        state = Lex::BlockComment(1);
                        code_line.push_str("  ");
                        comment_line.push_str("/*");
                        i += 2;
                        continue;
                    }
                    // Raw / byte / raw-byte strings: r"…", r#"…"#, b"…",
                    // br#"…"# — only when the prefix starts a new token.
                    let prev_word =
                        i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                    if !prev_word && (c == 'r' || c == 'b') {
                        let mut j = i + 1;
                        if c == 'b' && chars.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        let is_raw = (c == 'r' || chars.get(i + 1) == Some(&'r')) || hashes == 0;
                        if chars.get(j) == Some(&'"') && (is_raw || c == 'b') {
                            let raw = c == 'r' || chars.get(i + 1) == Some(&'r');
                            for _ in i..=j {
                                code_line.push(' ');
                                comment_line.push(' ');
                            }
                            i = j + 1;
                            state = if raw { Lex::RawStr(hashes) } else { Lex::Str };
                            continue;
                        }
                    }
                    if c == '"' {
                        state = Lex::Str;
                        code_line.push(' ');
                        comment_line.push(' ');
                        i += 1;
                        continue;
                    }
                    if c == '\'' {
                        // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                        let is_lifetime = next.is_some_and(|n| n.is_alphanumeric() || n == '_')
                            && chars.get(i + 2) != Some(&'\'')
                            && next != Some('\\');
                        if is_lifetime {
                            code_line.push(c);
                            comment_line.push(' ');
                            i += 1;
                            continue;
                        }
                        state = Lex::CharLit;
                        code_line.push(' ');
                        comment_line.push(' ');
                        i += 1;
                        continue;
                    }
                    code_line.push(c);
                    comment_line.push(' ');
                    i += 1;
                }
                Lex::LineComment => {
                    code_line.push(' ');
                    comment_line.push(c);
                    i += 1;
                }
                Lex::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 { Lex::Code } else { Lex::BlockComment(depth - 1) };
                        code_line.push_str("  ");
                        comment_line.push_str("*/");
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = Lex::BlockComment(depth + 1);
                        code_line.push_str("  ");
                        comment_line.push_str("/*");
                        i += 2;
                    } else {
                        code_line.push(' ');
                        comment_line.push(c);
                        i += 1;
                    }
                }
                Lex::Str => {
                    if c == '\\' {
                        code_line.push(' ');
                        comment_line.push(' ');
                        if next.is_some() {
                            code_line.push(' ');
                            comment_line.push(' ');
                            i += 1;
                        }
                    } else if c == '"' {
                        state = Lex::Code;
                        code_line.push(' ');
                        comment_line.push(' ');
                    } else {
                        code_line.push(' ');
                        comment_line.push(' ');
                    }
                    i += 1;
                }
                Lex::RawStr(hashes) => {
                    if c == '"' {
                        let mut ok = true;
                        for h in 0..hashes as usize {
                            if chars.get(i + 1 + h) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            for _ in 0..=hashes as usize {
                                code_line.push(' ');
                                comment_line.push(' ');
                            }
                            i += 1 + hashes as usize;
                            state = Lex::Code;
                            continue;
                        }
                    }
                    code_line.push(' ');
                    comment_line.push(' ');
                    i += 1;
                }
                Lex::CharLit => {
                    if c == '\\' {
                        code_line.push(' ');
                        comment_line.push(' ');
                        if next.is_some() {
                            code_line.push(' ');
                            comment_line.push(' ');
                            i += 1;
                        }
                    } else {
                        if c == '\'' {
                            state = Lex::Code;
                        }
                        code_line.push(' ');
                        comment_line.push(' ');
                    }
                    i += 1;
                }
            }
        }
        code.push(code_line);
        comment.push(comment_line);
    }
    Views { code, comment }
}

/// Does `line` contain `word` as a whole identifier token?
fn has_ident(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let at = from + pos;
        let before_ok =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let end = at + word.len();
        let after_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

/// Offsets (columns) of `word` as a whole identifier token in `line`.
fn ident_cols(line: &str, word: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut cols = Vec::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let at = from + pos;
        let before_ok =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let end = at + word.len();
        let after_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            cols.push(at);
        }
        from = at + word.len();
    }
    cols
}

/// The first non-whitespace token after column `col` of line `row`,
/// searching forward across lines. Returns a short prefix.
fn next_token(code: &[String], row: usize, col: usize) -> String {
    let mut r = row;
    let mut c = col;
    while r < code.len() {
        let line = &code[r];
        for (i, ch) in line.char_indices() {
            if i < c || ch.is_whitespace() {
                continue;
            }
            if ch == '{' || ch == '(' {
                return ch.to_string();
            }
            // An identifier/keyword: take its full word.
            let word: String =
                line[i..].chars().take_while(|ch| ch.is_alphanumeric() || *ch == '_').collect();
            return if word.is_empty() { ch.to_string() } else { word };
        }
        r += 1;
        c = 0;
    }
    String::new()
}

/// Raw std atomic type names banned in the shim-only modules.
const RAW_ATOMICS: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

fn lint_file(path: &Path, text: &str, offenders: &mut Vec<String>) {
    let views = lex(text);
    // Test modules come last by repo convention: stop at the first
    // `#[cfg(test)]` that appears in *code* (not inside a literal).
    let cutoff = views
        .code
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(views.code.len());
    let path_str = path.display().to_string().replace('\\', "/");
    let shim_only = SHIM_ONLY.iter().any(|m| path_str.ends_with(m));
    let sync_audited = views.comment[..cutoff].iter().any(|l| l.contains("sync-audit:"));

    for (i, code_line) in views.code[..cutoff].iter().enumerate() {
        let src_line = text.lines().nth(i).unwrap_or("").trim();
        let at = |rule: &str| format!("{}:{}: [{rule}] {src_line}", path.display(), i + 1);

        // Rule 1: no .unwrap() / .expect( in runtime code.
        if code_line.contains(".unwrap()") || code_line.contains(".expect(") {
            offenders.push(at("no-unwrap"));
        }

        // Rule 2: Relaxed ordering only under a sync-audit header.
        if !sync_audited && has_ident(code_line, "Relaxed") {
            offenders.push(at("relaxed-needs-sync-audit"));
        }

        // Rule 4: audited modules must use the rapid-sync shim.
        if shim_only
            && (RAW_ATOMICS.iter().any(|a| has_ident(code_line, a))
                || code_line.contains("sync::atomic"))
        {
            offenders.push(at("raw-atomic-in-audited-module"));
        }

        // Rule 3: unsafe blocks (and impls) need a nearby SAFETY comment.
        for col in ident_cols(code_line, "unsafe") {
            let tok = next_token(&views.code, i, col + "unsafe".len());
            let needs_comment = tok == "{" || tok == "impl";
            if !needs_comment {
                continue; // `unsafe fn` / `unsafe trait`: doc-contract
            }
            let lo = i.saturating_sub(SAFETY_WINDOW);
            let documented =
                views.comment[lo..=i].iter().any(|l| l.contains("SAFETY") || l.contains("Safety"));
            if !documented {
                offenders.push(at("unsafe-needs-safety-comment"));
            }
        }
    }
}

fn main() {
    let mut offenders: Vec<String> = Vec::new();
    let mut scanned = 0usize;
    for root in ROOTS {
        let mut files = Vec::new();
        rust_files(Path::new(root), &mut files);
        files.sort();
        for path in files {
            let Ok(text) = std::fs::read_to_string(&path) else {
                eprintln!("srclint: cannot read {}", path.display());
                std::process::exit(2);
            };
            scanned += 1;
            lint_file(&path, &text, &mut offenders);
        }
    }
    if offenders.is_empty() {
        println!(
            "srclint: {scanned} files clean (no-unwrap, relaxed-needs-sync-audit, \
             unsafe-needs-safety-comment, raw-atomic-in-audited-module)"
        );
    } else {
        eprintln!("srclint: {} offender(s) in runtime crates:", offenders.len());
        for o in &offenders {
            eprintln!("  {o}");
        }
        std::process::exit(1);
    }
}
