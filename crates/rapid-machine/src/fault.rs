//! Deterministic, seeded fault injection for the simulated machine.
//!
//! The paper's Theorem 1 claims the MAP protocol — single-slot unbuffered
//! address mailboxes, suspended-send retry from the CQ, and RA service in
//! every blocking state — is deadlock-free and data-consistent. Well-behaved
//! runs barely exercise that claim: slots are usually empty, puts land
//! promptly, workers run in lockstep. This module perturbs those assumptions
//! on purpose so the chaos harness can drive the executors through the
//! retry/suspend/service paths the proof actually relies on:
//!
//! - **mailbox send rejection/delay** — a send attempt is treated as if the
//!   destination slot were still occupied (forcing the blocked-in-MAP
//!   service loop) or is delayed before the hand-off;
//! - **RMA put delay** — a message's puts are held back for a bounded real
//!   (or virtual, in the DES) interval, so messages from different
//!   processors arrive reordered relative to the fault-free run;
//! - **worker stall/jitter** — a worker sleeps briefly before a task body,
//!   shaking out interleavings that rarely occur under symmetric load.
//!
//! Every injection site draws from its own [`FaultStream`], an xorshift64*
//! generator seeded from `(plan seed, processor, site)`. Decisions are
//! therefore reproducible per stream: the *n*-th draw of a given site on a
//! given processor is the same in every run with the same seed. (Under real
//! threading the mapping of draws to wall-clock moments still depends on the
//! interleaving; in the discrete-event executor the whole run is
//! deterministic.) Faults only ever delay or reject-and-retry — they never
//! corrupt data and never fail a run, so a faulted run must produce results
//! identical to the fault-free reference. There is no allocation site: every
//! buffer's offset is planned before the run, so a MAP has nothing left to
//! fail.

use std::time::Duration;

/// An injection site, as reported to observers (trace layers, metrics).
/// Each variant corresponds to one decision method on [`ProcFaults`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A mailbox send attempt was treated as if the slot were occupied.
    MailboxReject,
    /// A mailbox hand-off was delayed.
    MailboxDelay,
    /// A message's RMA puts were delayed.
    PutDelay,
    /// A worker stalled before a task body.
    TaskJitter,
}

impl FaultSite {
    /// All sites, in the order used for injection counters.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::MailboxReject,
        FaultSite::MailboxDelay,
        FaultSite::PutDelay,
        FaultSite::TaskJitter,
    ];

    /// Short display name (trace export labels).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::MailboxReject => "mailbox-reject",
            FaultSite::MailboxDelay => "mailbox-delay",
            FaultSite::PutDelay => "put-delay",
            FaultSite::TaskJitter => "task-jitter",
        }
    }
}

/// Site tag for the mailbox send path.
const SITE_MAILBOX: u64 = 0x6d61_696c;
/// Site tag for the RMA put path.
const SITE_PUT: u64 = 0x7075_7421;
/// Site tag for per-task worker jitter.
const SITE_TASK: u64 = 0x7461_736b;

/// A deterministic per-site pseudo-random stream (xorshift64* over a
/// splitmix64-derived seed, so nearby `(seed, proc, site)` triples still
/// give uncorrelated streams).
#[derive(Clone, Debug)]
pub struct FaultStream {
    state: u64,
}

impl FaultStream {
    /// Stream for injection site `site` on processor `proc` of a plan
    /// seeded with `seed`.
    pub fn new(seed: u64, proc: u64, site: u64) -> Self {
        // splitmix64 finalizer over the combined key.
        let mut z = seed ^ proc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ site.rotate_left(32);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultStream { state: z | 1 }
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// One biased coin: true with probability `permille`/1000.
    pub fn hit(&mut self, permille: u16) -> bool {
        permille > 0 && self.next_u64() % 1000 < permille as u64
    }

    /// Uniform duration in `[0, max]` (zero when `max` is zero).
    pub fn jitter(&mut self, max: Duration) -> Duration {
        let ns = max.as_nanos() as u64;
        if ns == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.next_u64() % (ns + 1))
    }
}

/// What to inject: per-site probabilities (in permille, i.e. ‰ of
/// attempts) and magnitudes. A default spec injects nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// ‰ of mailbox send attempts treated as if the slot were occupied.
    pub mailbox_reject_permille: u16,
    /// ‰ of mailbox send attempts delayed before the hand-off.
    pub mailbox_delay_permille: u16,
    /// Maximum mailbox hand-off delay.
    pub mailbox_delay_max: Duration,
    /// ‰ of message sends whose puts are delayed.
    pub put_delay_permille: u16,
    /// Maximum put delay.
    pub put_delay_max: Duration,
    /// ‰ of task bodies preceded by a worker stall.
    pub task_jitter_permille: u16,
    /// Maximum per-task stall.
    pub task_jitter_max: Duration,
}

/// A seeded fault-injection plan: a [`FaultSpec`] plus the seed all
/// per-site streams derive from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of every per-site stream.
    pub seed: u64,
    /// Injection probabilities and magnitudes.
    pub spec: FaultSpec,
}

impl FaultPlan {
    /// Plan injecting `spec` with streams seeded from `seed`.
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        FaultPlan { seed, spec }
    }

    /// Delay-heavy scenario: frequent put and mailbox hand-off delays plus
    /// mild task jitter — messages arrive late and reordered.
    pub fn delay_heavy(seed: u64) -> Self {
        FaultPlan::new(
            seed,
            FaultSpec {
                put_delay_permille: 350,
                put_delay_max: Duration::from_micros(200),
                mailbox_delay_permille: 250,
                mailbox_delay_max: Duration::from_micros(100),
                task_jitter_permille: 100,
                task_jitter_max: Duration::from_micros(100),
                ..FaultSpec::default()
            },
        )
    }

    /// Contention-heavy scenario: mailbox sends are rejected often, forcing
    /// the blocked-in-MAP service loop, with jitter to desynchronize the
    /// workers.
    pub fn contention_heavy(seed: u64) -> Self {
        FaultPlan::new(
            seed,
            FaultSpec {
                mailbox_reject_permille: 400,
                task_jitter_permille: 200,
                task_jitter_max: Duration::from_micros(50),
                ..FaultSpec::default()
            },
        )
    }

    /// Mixed scenario: every site injects at a moderate rate.
    pub fn mixed(seed: u64) -> Self {
        FaultPlan::new(
            seed,
            FaultSpec {
                mailbox_reject_permille: 150,
                mailbox_delay_permille: 150,
                mailbox_delay_max: Duration::from_micros(100),
                put_delay_permille: 150,
                put_delay_max: Duration::from_micros(100),
                task_jitter_permille: 100,
                task_jitter_max: Duration::from_micros(50),
            },
        )
    }

    /// The named scenario matrix the chaos harness iterates.
    pub fn scenarios(seed: u64) -> Vec<(&'static str, FaultPlan)> {
        vec![
            ("delay-heavy", FaultPlan::delay_heavy(seed)),
            ("contention-heavy", FaultPlan::contention_heavy(seed)),
            ("mixed", FaultPlan::mixed(seed)),
        ]
    }

    /// The per-processor injector: independent streams for every site.
    pub fn for_proc(&self, proc: usize) -> ProcFaults {
        let p = proc as u64;
        ProcFaults {
            spec: self.spec.clone(),
            mailbox: FaultStream::new(self.seed, p, SITE_MAILBOX),
            put: FaultStream::new(self.seed, p, SITE_PUT),
            task: FaultStream::new(self.seed, p, SITE_TASK),
        }
    }
}

/// One processor's injector: call a site method at the matching point of
/// the executor; it draws from that site's stream and says what to inject.
#[derive(Clone, Debug)]
pub struct ProcFaults {
    spec: FaultSpec,
    mailbox: FaultStream,
    put: FaultStream,
    task: FaultStream,
}

impl ProcFaults {
    /// Should this mailbox send attempt be treated as rejected (slot
    /// occupied)?
    #[inline]
    pub fn mailbox_reject(&mut self) -> bool {
        self.mailbox.hit(self.spec.mailbox_reject_permille)
    }

    /// Delay to apply before this mailbox hand-off, if any.
    #[inline]
    pub fn mailbox_delay(&mut self) -> Option<Duration> {
        if self.mailbox.hit(self.spec.mailbox_delay_permille) {
            Some(self.mailbox.jitter(self.spec.mailbox_delay_max))
        } else {
            None
        }
    }

    /// Delay to apply before this message's RMA puts, if any.
    #[inline]
    pub fn put_delay(&mut self) -> Option<Duration> {
        if self.put.hit(self.spec.put_delay_permille) {
            Some(self.put.jitter(self.spec.put_delay_max))
        } else {
            None
        }
    }

    /// Stall to apply before this task body, if any.
    #[inline]
    pub fn task_jitter(&mut self) -> Option<Duration> {
        if self.task.hit(self.spec.task_jitter_permille) {
            Some(self.task.jitter(self.spec.task_jitter_max))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_site() {
        let plan = FaultPlan::mixed(42);
        let mut a = plan.for_proc(1);
        let mut b = plan.for_proc(1);
        for _ in 0..256 {
            assert_eq!(a.mailbox_reject(), b.mailbox_reject());
            assert_eq!(a.put_delay(), b.put_delay());
            assert_eq!(a.task_jitter(), b.task_jitter());
        }
    }

    #[test]
    fn sites_and_procs_are_independent() {
        // Consuming one site's stream must not shift another's, and
        // different processors see different sequences.
        let plan = FaultPlan::mixed(7);
        let mut a = plan.for_proc(0);
        let mut b = plan.for_proc(0);
        for _ in 0..64 {
            let _ = a.put_delay(); // extra draws on the put site only
        }
        let seq_a: Vec<bool> = (0..64).map(|_| a.mailbox_reject()).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.mailbox_reject()).collect();
        assert_eq!(seq_a, seq_b, "put draws must not perturb the mailbox stream");

        let mut p0 = plan.for_proc(0);
        let mut p1 = plan.for_proc(1);
        let s0: Vec<u64> = (0..64).map(|_| p0.put.next_u64()).collect();
        let s1: Vec<u64> = (0..64).map(|_| p1.put.next_u64()).collect();
        assert_ne!(s0, s1, "processors must get distinct streams");
    }

    #[test]
    fn hit_rate_tracks_permille() {
        let mut s = FaultStream::new(3, 0, SITE_PUT);
        let hits = (0..10_000).filter(|_| s.hit(250)).count();
        assert!((2000..3000).contains(&hits), "250‰ gave {hits}/10000");
        let mut s = FaultStream::new(3, 0, SITE_PUT);
        assert_eq!((0..1000).filter(|_| s.hit(0)).count(), 0);
        let mut s = FaultStream::new(3, 0, SITE_PUT);
        assert_eq!((0..1000).filter(|_| s.hit(1000)).count(), 1000);
    }

    #[test]
    fn jitter_is_bounded() {
        let mut s = FaultStream::new(11, 4, SITE_TASK);
        let max = Duration::from_micros(100);
        for _ in 0..1000 {
            assert!(s.jitter(max) <= max);
        }
        assert_eq!(s.jitter(Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn default_spec_injects_nothing() {
        let plan = FaultPlan::new(1, FaultSpec::default());
        let mut f = plan.for_proc(0);
        for _ in 0..100 {
            assert!(!f.mailbox_reject());
            assert!(f.mailbox_delay().is_none());
            assert!(f.put_delay().is_none());
            assert!(f.task_jitter().is_none());
        }
    }
}
