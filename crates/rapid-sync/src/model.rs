//! Public model-checking API.
//!
//! A *scenario* is a closure run once per execution: it builds the model's
//! shared state (shim types in `Rc`s), registers 1–3 bounded threads with
//! [`Sim::thread`], and registers post-join invariants with [`Sim::finally`].
//! [`check`] then explores every interleaving and every eligible load value.
//!
//! Model-thread closures are re-run many times with recorded results replayed,
//! so they must be deterministic and must not mutate captured state outside
//! the shim types (locals are fine — they are rebuilt on each replay; use
//! [`out`] to accumulate cross-replay outputs such as "values I delivered").

use std::io::Write as _;

pub use crate::engine::{Config, Counterexample, Outcome, Sim, Stats};

/// Exhaustively check a scenario. See module docs for the scenario contract.
pub fn check(name: &str, cfg: Config, scenario: impl Fn(&mut Sim)) -> Outcome {
    crate::engine::explore(name, cfg, &scenario)
}

/// Record an output value for the current model thread (replay-safe, not a
/// scheduling point). Retrieve with [`outputs`] from a `finally` closure.
pub fn out(val: u64) {
    crate::engine::route_note(val);
}

/// Outputs recorded via [`out`], indexed by thread id (0 = setup/finally,
/// model threads are 1..). Only meaningful inside an active check.
pub fn outputs() -> Vec<Vec<u64>> {
    crate::engine::current_outputs()
}

/// Run a scenario that must pass exhaustively and print what it explored;
/// panics with a rendered counterexample (also written to the
/// failure-artifact directory) otherwise.
pub fn check_passes(name: &str, cfg: Config, scenario: impl Fn(&mut Sim)) -> Stats {
    match check(name, cfg, scenario) {
        Outcome::Pass(stats) => {
            let (execs, pruned, steps) = (stats.executions, stats.pruned, stats.steps);
            println!("{name}: {execs} executions ({pruned} pruned), {steps} steps");
            stats
        }
        Outcome::Violation(cex) => {
            let path = write_failure_artifact(&cex);
            panic!(
                "model `{name}` expected to pass, found a violation (artifact: {path}):\n{}",
                cex.render()
            );
        }
        Outcome::Exhausted(stats) => panic!(
            "model `{name}` hit exploration bounds before exhausting the state space \
             ({} executions, {} steps) — raise Config limits or shrink the model",
            stats.executions, stats.steps
        ),
    }
}

/// Run a scenario (typically a seeded mutant) that the checker must refute
/// with a concrete interleaving carrying the mutant's name; prints and
/// returns the counterexample. Panics if the mutant survives.
pub fn require_violation(name: &str, cfg: Config, scenario: impl Fn(&mut Sim)) -> Counterexample {
    match check(name, cfg, scenario) {
        Outcome::Violation(cex) => {
            assert_eq!(cex.model, name, "counterexample carries the mutant name");
            assert!(
                !cex.trace.is_empty(),
                "counterexample for `{name}` has a concrete interleaving"
            );
            println!("== mutant `{name}` refuted ==\n{}", cex.render());
            *cex
        }
        Outcome::Pass(stats) => panic!(
            "mutant `{name}` was NOT caught: {} executions ({} pruned) all passed",
            stats.executions, stats.pruned
        ),
        Outcome::Exhausted(stats) => panic!(
            "mutant `{name}` hit exploration bounds without being caught ({} executions)",
            stats.executions
        ),
    }
}

/// Write a counterexample to `target/model-check-failures/<model>.txt`
/// (uploaded as a CI artifact). Returns the path written, or a placeholder
/// when the directory cannot be created.
pub fn write_failure_artifact(cex: &Counterexample) -> String {
    let dir = format!("{}/../../target/model-check-failures", env!("CARGO_MANIFEST_DIR"));
    if std::fs::create_dir_all(&dir).is_err() {
        return "<unwritable>".to_string();
    }
    let slug: String =
        cex.model.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect();
    let path = format!("{dir}/{slug}.txt");
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = f.write_all(cex.render().as_bytes());
            path
        }
        Err(_) => "<unwritable>".to_string(),
    }
}
