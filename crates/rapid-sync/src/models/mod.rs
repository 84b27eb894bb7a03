//! Bounded models of two audited runtime concurrency cores, plus their
//! seeded mutation corpora.
//!
//! Each model is parameterized by an orderings/logic struct with a `GOOD`
//! configuration (mirroring the real code exactly) and a set of named mutants
//! (weakened orderings, deleted fences, logic slips). The checker must pass
//! `GOOD` exhaustively and refute every mutant with a counterexample — that
//! corpus is how the checker itself is validated, mirroring the
//! negative-corpus style of `rapid-trace`.

pub mod mailbox;
pub mod sentguard;
