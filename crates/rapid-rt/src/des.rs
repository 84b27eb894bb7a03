//! Deterministic discrete-event executor.
//!
//! Models the run-time behaviour of a static schedule under active memory
//! management on the simulated machine: MAP insertion and its costs,
//! address packages through single-slot mailboxes, suspended sends and
//! message transfer times. The five-state machine of the paper's Figure
//! 3(b) is the shared `ProcCore` (`core.rs`); this module is its
//! virtual-time driver — the cost model and the message arrival times
//! behind the core's environment, and an event heap that steps whichever
//! processor is due, runs the RA and CQ service operations before every
//! step, and on `Blocked` returns to the heap: whatever ends a wait (a put,
//! an address package, an RA drain) has pushed the wake-up, and a processor
//! refused by an injected fault re-queues itself.
//!
//! With `memory_mgmt` disabled the executor reproduces the *original*
//! RAPID behaviour — all volatile space allocated up front, addresses
//! exchanged once, no MAPs — which is the comparison base of the paper's
//! Tables 2 and 3 ("the parallel time of a schedule with 100% memory
//! available and without any memory managing overhead").

use crate::core::{CoreSpec, Cost, Diag, Env, On, ProcCore, Step};
use crate::inspector::{ProcDiag, StallSnapshot};
use crate::maps::{permanent_layout, ExecError, MapWindow, RtPlan};
use rapid_core::algo::OrdF64;
use rapid_core::graph::{ProcId, TaskGraph, TaskId};
use rapid_core::schedule::Schedule;
use rapid_machine::config::MachineConfig;
use rapid_machine::fault::{FaultPlan, FaultSite, FaultSpec};
use rapid_machine::machine::VirtualMachine;
use rapid_trace::{decode_rings, FlatRing, ProcMetrics, ProtoState, TraceConfig, TraceSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Virtual-time trace timestamp: simulated seconds scaled to integer
/// nanoseconds (a unit-cost task spans 1 s of virtual time). Pure f64
/// arithmetic on deterministic inputs, so seeded reruns stamp
/// byte-identical traces.
fn vts(now: f64) -> u64 {
    (now.max(0.0) * 1e9).round() as u64
}

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct DesConfig {
    /// Machine cost/capacity model.
    pub machine: MachineConfig,
    /// Enable active memory management (MAPs, recycling, address
    /// notification). Disabled = original RAPID: everything preallocated.
    pub memory_mgmt: bool,
    /// Deterministic fault plan. Message puts and address packages are
    /// held back by seeded virtual-time delays, arriving late and
    /// reordered; a processor whose package hand-off an injected fault
    /// refuses retries at its own clock, after the events
    /// already due then. Task jitter has no meaning in virtual time.
    pub faults: Option<FaultPlan>,
    /// Per-processor event tracing. `None` (the default) records nothing.
    /// Recording goes through the flat binary rings and is decoded back
    /// into typed events when the run completes. Timestamps are virtual
    /// nanoseconds, so same-seed reruns produce byte-identical traces.
    pub trace: Option<TraceConfig>,
}

impl DesConfig {
    /// Active-memory-management configuration on the given machine.
    pub fn managed(machine: MachineConfig) -> Self {
        DesConfig { machine, memory_mgmt: true, faults: None, trace: None }
    }

    /// Original-RAPID configuration (no recycling).
    pub fn unmanaged(machine: MachineConfig) -> Self {
        DesConfig { memory_mgmt: false, ..Self::managed(machine) }
    }

    /// Inject a deterministic fault plan (see [`DesConfig::faults`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enable per-processor event tracing. Note the trace checker's
    /// address obligations assume the managed protocol; unmanaged runs
    /// exchange all addresses up front and their traces legitimately
    /// show sends with no preceding address package.
    pub fn with_tracing(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }
}

/// Result of a successful run.
#[derive(Clone, Debug)]
pub struct DesOutcome {
    /// Simulated parallel (wall-clock) time.
    pub parallel_time: f64,
    /// Number of MAPs performed per processor.
    pub maps: Vec<u32>,
    /// Peak data-space units in use per processor.
    pub peak_mem: Vec<u64>,
    /// Data/sync messages sent.
    pub msgs_sent: usize,
    /// Address packages sent.
    pub addr_pkgs_sent: usize,
    /// Messages that had to wait in the suspended queue at least once.
    pub suspended_sends: usize,
    /// Per-task finish times (simulated seconds).
    pub finish: Vec<f64>,
    /// Recorded event traces when [`DesConfig::trace`] was set.
    pub trace: Option<TraceSet>,
    /// Per-processor metrics replayed from the trace (present exactly
    /// when `trace` is).
    pub metrics: Option<Vec<ProcMetrics>>,
}

impl DesOutcome {
    /// Average number of MAPs over processors (the paper's `#MAPs`
    /// columns; fractional because processors may differ).
    pub fn avg_maps(&self) -> f64 {
        if self.maps.is_empty() {
            return 0.0;
        }
        self.maps.iter().map(|&m| m as f64).sum::<f64>() / self.maps.len() as f64
    }
}

/// One processor's virtual clock: its local time, and how long an
/// injected fault holds back its next put and its next address package.
#[derive(Clone, Copy, Default)]
struct Clock {
    now: f64,
    put_lag: f64,
    pkg_lag: f64,
}

/// The simulated machine behind the protocol cores: the cost model, the
/// event heap and the message arrival times. It is the [`Env`] of
/// whichever processor (`cur`) the event loop is stepping.
struct Sim<'a> {
    g: &'a TaskGraph,
    plan: &'a RtPlan,
    m: &'a MachineConfig,
    memory_mgmt: bool,
    vm: &'a VirtualMachine,
    cur: usize,
    clocks: Vec<Clock>,
    /// Wake-ups `(time, sequence, processor)`; ordering lives here, the
    /// cores know nothing about time.
    events: BinaryHeap<Reverse<(OrdF64, u64, u32)>>,
    seq: u64,
    /// Arrival time of every message, once sent.
    msg_arrival: Vec<Option<f64>>,
    finish: Vec<f64>,
    done: usize,
    /// Did the step in progress run a task?
    ran_task: bool,
    msgs_sent: usize,
    addr_pkgs_sent: usize,
    /// Every processor's last published state.
    diag: Vec<Diag>,
}

impl Sim<'_> {
    /// Step processor `p` again once virtual time reaches `t`.
    fn wake(&mut self, t: f64, p: u32) {
        self.seq += 1;
        self.events.push(Reverse((OrdF64(t), self.seq, p)));
    }

    fn clock(&mut self) -> &mut Clock {
        &mut self.clocks[self.cur]
    }
}

impl Env for Sim<'_> {
    fn now(&mut self) -> u64 {
        self.recent()
    }

    fn recent(&self) -> u64 {
        vts(self.clocks[self.cur].now)
    }

    fn charge(&mut self, cost: Cost) {
        let m = self.m;
        match cost {
            Cost::Map { objects } => {
                self.clock().now += m.map_fixed_cost + m.alloc_cost * objects as f64;
            }
            // The package wakes its destination when it arrives.
            Cost::AddrPkg { dst, entries } => {
                let c = self.clock();
                c.now += m.addr_pkg_cost;
                let arrive =
                    c.now + m.transfer_time(entries as u64) + std::mem::take(&mut c.pkg_lag);
                self.vm.date_last(self.cur, dst as usize, arrive);
                self.addr_pkgs_sent += 1;
                self.wake(arrive, dst);
            }
            // The pair's queue drained: wake the source in case it is
            // blocked in MAP trying to send us a new package.
            Cost::Ra { src } => {
                self.clock().now += m.ra_cost;
                let now = self.clock().now;
                self.wake(now, src as u32);
            }
            // Managed runs pay the address-table indirection for every
            // object the task touches.
            Cost::Lookup { accesses } => {
                if self.memory_mgmt {
                    self.clock().now += m.addr_lookup_cost * accesses as f64;
                }
            }
            // The receiver waits for the message's arrival.
            Cost::Recv { mid } => {
                if let Some(arrive) = self.msg_arrival[mid as usize] {
                    let c = self.clock();
                    c.now = c.now.max(arrive);
                }
            }
        }
    }

    fn delay(&mut self, site: FaultSite, by: Duration) {
        match site {
            FaultSite::PutDelay => self.clock().put_lag = by.as_secs_f64(),
            FaultSite::MailboxDelay => self.clock().pkg_lag = by.as_secs_f64(),
            _ => {}
        }
    }

    /// Charge the sender's put overhead (plus the managed-mode address
    /// table lookup), date the arrival, including any injected delay, and
    /// wake the destination then.
    fn put(&mut self, mid: u32, _: &[u64]) {
        let (m, mgmt) = (self.m, self.memory_mgmt);
        let msg = &self.plan.msgs[mid as usize];
        let c = self.clock();
        c.now += m.put_overhead;
        if mgmt {
            c.now += m.msg_lookup_cost;
        }
        let arrive = c.now + m.transfer_time(msg.units) + std::mem::take(&mut c.put_lag);
        self.msg_arrival[mid as usize] = Some(arrive);
        self.msgs_sent += 1;
        self.wake(arrive, msg.dst_proc);
    }

    /// A message counts once it is sent: its receiver then waits for it
    /// by advancing its clock to the arrival (`Cost::Recv`).
    fn arrived(&mut self, mid: u32) -> bool {
        self.msg_arrival[mid as usize].is_some()
    }

    fn run_task(&mut self, t: TaskId, _: &[u64]) -> Result<(), ExecError> {
        let secs = self.m.task_time(self.g.weight(t));
        self.clock().now += secs;
        self.finish[t.idx()] = self.clock().now;
        self.done += 1;
        self.ran_task = true;
        Ok(())
    }

    fn publish(&mut self, d: Diag) {
        self.diag[self.cur] = d;
    }
}

/// The discrete-event executor. Owns nothing of the schedule; borrow it
/// per run.
pub struct DesExecutor<'a> {
    g: &'a TaskGraph,
    sched: &'a Schedule,
    plan: RtPlan,
    /// [`permanent_layout`] of the schedule.
    perm_off: Vec<u64>,
    cfg: DesConfig,
}

impl<'a> DesExecutor<'a> {
    /// Prepare an executor for `sched` (builds the protocol plan).
    pub fn new(g: &'a TaskGraph, sched: &'a Schedule, cfg: DesConfig) -> Self {
        let plan = RtPlan::new(g, sched);
        DesExecutor { g, sched, plan, perm_off: permanent_layout(g, sched), cfg }
    }

    /// Access the protocol plan (tests, stats).
    pub fn plan(&self) -> &RtPlan {
        &self.plan
    }

    /// Run the simulation.
    pub fn run(&self) -> Result<DesOutcome, ExecError> {
        let nprocs = self.sched.assign.nprocs;
        let m = &self.cfg.machine;
        assert_eq!(nprocs, m.nprocs, "schedule and machine disagree on processor count");

        // Recording goes straight into per-processor flat rings; the
        // typed trace is decoded once at the end of the run.
        let rings: Option<Vec<FlatRing>> = self
            .cfg
            .trace
            .map(|tc| (0..nprocs).map(|p| FlatRing::new(p as u32, tc.ring_records())).collect());

        // Address mailboxes: the cores talk to the same `Port` surface as
        // under the threaded executor, here over virtual time. At most one
        // package is in flight per pair; a second send is refused.
        let vm = VirtualMachine::new(nprocs);
        let mut sim = Sim {
            g: self.g,
            plan: &self.plan,
            m,
            memory_mgmt: self.cfg.memory_mgmt,
            vm: &vm,
            cur: 0,
            clocks: vec![Clock::default(); nprocs],
            events: BinaryHeap::new(),
            seq: 0,
            msg_arrival: vec![None; self.plan.msgs.len()],
            finish: vec![0.0; self.g.num_tasks()],
            done: 0,
            ran_task: false,
            msgs_sent: 0,
            addr_pkgs_sent: 0,
            diag: vec![Diag { state: ProtoState::Setup, pos: 0, suspended: 0 }; nprocs],
        };

        // The MAPs every core replays, planned by counting before virtual
        // time starts: a schedule that cannot run under the cap is
        // reported here, for the lowest processor it fails on, as the
        // verifier does. The DES places no real buffers, so there are no
        // offsets; original RAPID performs no MAP at all.
        let maps = if self.cfg.memory_mgmt {
            self.plan.place_maps(self.g, self.sched, m.capacity, MapWindow::Greedy)?.per_proc
        } else {
            vec![Vec::new(); nprocs]
        };
        let spec = CoreSpec {
            g: self.g,
            sched: self.sched,
            plan: &self.plan,
            perm_off: &self.perm_off,
            maps: &maps,
            offsets: &[],
            armed: false,
        };
        // Virtual time has no interleaving for task jitter to shake.
        let faults = self.cfg.faults.as_ref().map(|f| FaultPlan {
            seed: f.seed,
            spec: FaultSpec { task_jitter_permille: 0, ..f.spec.clone() },
        });
        let mut cores = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            sim.cur = p;
            let core = ProcCore::new(
                spec,
                p,
                vm.port(p),
                faults.as_ref().map(|f| f.for_proc(p)),
                rings.as_ref().map(|rs| rs[p].writer()),
                &mut sim,
            );
            cores.push(if self.cfg.memory_mgmt {
                core
            } else {
                // Original RAPID: all volatile space allocated up front.
                let vola: u64 =
                    self.plan.lv.procs[p].volatile.iter().map(|&d| self.g.obj_size(d)).sum();
                let need = self.plan.perm_units[p] + vola;
                if need > m.capacity {
                    return Err(ExecError::NonExecutable {
                        proc: p as ProcId,
                        position: 0,
                        needed: need,
                        capacity: m.capacity,
                    });
                }
                core.preallocated(need)
            });
            sim.wake(0.0, p as u32);
        }

        // What each processor that cannot go on is waiting for.
        let mut blocked: Vec<Option<On>> = vec![None; nprocs];
        while let Some(Reverse((OrdF64(t), _, p))) = sim.events.pop() {
            let core = &mut cores[p as usize];
            if core.is_done() {
                continue;
            }
            sim.cur = p as usize;
            sim.clock().now = sim.clock().now.max(t);
            // Step processor p as far as it can go. RA and CQ are
            // serviced before every step (any state at a service point is
            // a blocking state or a task boundary); the port hands over
            // what has arrived by the clock captured here.
            loop {
                core.port().set_now(sim.clock().now);
                core.service(&mut sim);
                sim.ran_task = false;
                match core.step(&mut sim)? {
                    // Yield after every task: re-queue ourselves so that
                    // other processors' earlier events (message and
                    // address-package arrivals) interleave in simulated-
                    // time order — RA/CQ are then serviced at the right
                    // task boundary, as on real hardware.
                    Step::Progress if sim.ran_task => {
                        let now = sim.clock().now;
                        sim.wake(now, p);
                        break;
                    }
                    Step::Progress => {}
                    // An injected refusal ends only by trying again: after
                    // whatever else is due now.
                    Step::Blocked(On::Refused) => {
                        let now = sim.clock().now;
                        sim.wake(now, p);
                        break;
                    }
                    // Whatever ends any other wait wakes us: a put or a
                    // package its destination, an RA drain the package's
                    // source.
                    Step::Blocked(on) => {
                        blocked[p as usize] = Some(on);
                        break;
                    }
                    Step::Done => {
                        core.retire(&mut sim);
                        break;
                    }
                }
            }
        }

        let remaining = self.g.num_tasks() - sim.done;
        if remaining > 0 {
            // The heap ran dry with tasks left: photograph every processor.
            let procs = (0..nprocs)
                .map(|q| ProcDiag {
                    proc: q as ProcId,
                    state: sim.diag[q].state,
                    pos: sim.diag[q].pos,
                    order_len: self.sched.order[q].len() as u32,
                    suspended_sends: sim.diag[q].suspended,
                    mailbox_full_to: match blocked[q] {
                        Some(On::Mailbox(dst)) if !cores[q].is_done() => vec![dst],
                        _ => Vec::new(),
                    },
                })
                .collect();
            let reporter = cores.iter().position(|c| !c.is_done()).unwrap_or(0);
            let snapshot = StallSnapshot::new(
                reporter as ProcId,
                0,
                sim.msg_arrival.iter().flatten().count(),
                self.plan.msgs.len(),
                procs,
                rings.as_ref().map(|rs| &rs[reporter]),
            );
            return Err(ExecError::Stalled { remaining, snapshot: Some(Box::new(snapshot)) });
        }
        let parallel_time = sim.clocks.iter().map(|c| c.now).fold(0.0f64, f64::max);
        let maps = cores.iter().map(|c| c.maps_done()).collect();
        let peak_mem = cores.iter().map(|c| c.peak()).collect();
        let suspended_sends = cores.iter().map(|c| c.suspended_ever()).sum();
        // Quiesce the writers, then decode the rings back into the typed
        // schema (exact drop accounting of the quiesced read).
        drop(cores);
        let trace = rings.as_deref().map(decode_rings);
        let metrics = trace.as_ref().map(ProcMetrics::from_traces);
        Ok(DesOutcome {
            parallel_time,
            maps,
            peak_mem,
            msgs_sent: sim.msgs_sent,
            addr_pkgs_sent: sim.addr_pkgs_sent,
            suspended_sends,
            finish: sim.finish,
            trace,
            metrics,
        })
    }
}

/// Convenience: run a schedule under active memory management and return
/// the outcome.
pub fn run_managed(
    g: &TaskGraph,
    sched: &Schedule,
    machine: MachineConfig,
) -> Result<DesOutcome, ExecError> {
    DesExecutor::new(g, sched, DesConfig::managed(machine)).run()
}

/// Convenience: run a schedule as the original RAPID (no recycling).
pub fn run_unmanaged(
    g: &TaskGraph,
    sched: &Schedule,
    machine: MachineConfig,
) -> Result<DesOutcome, ExecError> {
    DesExecutor::new(g, sched, DesConfig::unmanaged(machine)).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::fixtures;
    use rapid_core::memreq::min_mem;

    fn unit_machine(cap: u64) -> MachineConfig {
        MachineConfig::unit(2, cap)
    }

    #[test]
    fn figure2_runs_with_ample_memory() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let out = run_managed(&g, &sched, unit_machine(100)).unwrap();
        assert_eq!(out.maps, vec![1, 1], "one MAP per processor when memory is ample");
        assert!(out.parallel_time >= 14.0);
        // A single up-front window allocates every volatile, so the peak
        // is the no-recycling footprint of each processor, not MIN_MEM.
        let rep = min_mem(&g, &sched);
        assert_eq!(out.peak_mem[0], rep.no_recycle(0));
        assert_eq!(out.peak_mem[1], rep.no_recycle(1));
        // Tight capacity brings the peak down to the MIN_MEM profile.
        let tight = run_managed(&g, &sched, unit_machine(rep.min_mem)).unwrap();
        assert!(tight.peak_mem[0] <= rep.min_mem && tight.peak_mem[1] <= rep.min_mem);
    }

    #[test]
    fn executable_iff_min_mem_fits() {
        let g = fixtures::figure2_dag();
        for sched in [fixtures::figure2_schedule_b(), fixtures::figure2_schedule_c()] {
            let mm = min_mem(&g, &sched).min_mem;
            for cap in mm.saturating_sub(2)..mm + 3 {
                let res = run_managed(&g, &sched, unit_machine(cap));
                if cap >= mm {
                    assert!(res.is_ok(), "cap {cap} >= MIN_MEM {mm} must run: {res:?}");
                } else {
                    assert!(
                        matches!(res, Err(ExecError::NonExecutable { .. })),
                        "cap {cap} < MIN_MEM {mm} must fail"
                    );
                }
            }
        }
    }

    #[test]
    fn tight_memory_needs_more_maps() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let loose = run_managed(&g, &sched, unit_machine(100)).unwrap();
        let tight = run_managed(&g, &sched, unit_machine(8)).unwrap();
        assert!(tight.avg_maps() > loose.avg_maps());
        assert!(tight.peak_mem.iter().all(|&m| m <= 8));
        // Managing memory cannot make the run faster under unit costs with
        // zero overhead parameters... it can reorder message waits though;
        // only sanity-check the run completed with the same task count.
        assert_eq!(tight.finish.len(), g.num_tasks());
    }

    #[test]
    fn unmanaged_baseline_matches_managed_with_full_memory() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let base = run_unmanaged(&g, &sched, unit_machine(100)).unwrap();
        let managed = run_managed(&g, &sched, unit_machine(100)).unwrap();
        // Zero-overhead unit machine: identical times.
        assert!((base.parallel_time - managed.parallel_time).abs() < 1e-9);
        assert_eq!(base.maps, vec![0, 0]);
        assert_eq!(base.suspended_sends, 0, "all addresses known up front");
    }

    #[test]
    fn unmanaged_rejects_insufficient_total_memory() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        // TOT is 9 (P1: 5 permanent + 4 volatile).
        assert!(matches!(
            run_unmanaged(&g, &sched, unit_machine(8)),
            Err(ExecError::NonExecutable { needed: 9, .. })
        ));
    }

    #[test]
    fn overheads_increase_parallel_time() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let free = run_managed(&g, &sched, unit_machine(8)).unwrap();
        let mut costly = unit_machine(8);
        costly.map_fixed_cost = 0.5;
        costly.alloc_cost = 0.1;
        costly.addr_pkg_cost = 0.2;
        costly.ra_cost = 0.1;
        let slow = run_managed(&g, &sched, costly).unwrap();
        assert!(slow.parallel_time > free.parallel_time);
    }

    #[test]
    fn suspended_sends_appear_under_tight_memory() {
        // With minimal capacity the second window's volatiles are
        // allocated late, so early producers must suspend their puts.
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let out = run_managed(&g, &sched, unit_machine(8)).unwrap();
        assert!(out.suspended_sends > 0);
        assert!(out.addr_pkgs_sent > 0);
    }

    #[test]
    fn idle_processor_is_harmless() {
        // A schedule over more processors than tasks need: the extra
        // processor owns nothing and must go straight to END.
        let g = fixtures::figure2_dag();
        let c = fixtures::figure2_schedule_c();
        let mut assign = c.assign.clone();
        assign.nprocs = 3;
        let sched = rapid_core::schedule::Schedule {
            assign,
            order: vec![c.order[0].clone(), c.order[1].clone(), Vec::new()],
        };
        for mgmt in [true, false] {
            let mut cfg = DesConfig::managed(MachineConfig::unit(3, 100));
            cfg.memory_mgmt = mgmt;
            let out = DesExecutor::new(&g, &sched, cfg).run().unwrap();
            assert_eq!(out.finish.len(), g.num_tasks());
        }
    }

    #[test]
    fn a_stall_carries_every_processors_state_and_position() {
        // A dependence-violating order: on P0, T[8,9] (which needs d8 from
        // P1) runs before T[1,7] (whose d7 P1 needs to produce d8). Both
        // processors end up in REC, waiting for each other.
        let g = fixtures::figure2_dag();
        let mut sched = fixtures::figure2_schedule_c();
        sched.order[0].swap(3, 4);
        let stalled = run_managed(&g, &sched, unit_machine(100));
        let Err(ExecError::Stalled { remaining, snapshot: Some(snap) }) = stalled else {
            panic!("expected a stall with a snapshot, got {stalled:?}");
        };
        assert_eq!(remaining, 9);
        let rows: Vec<_> = snap.procs.iter().map(|d| (d.proc, d.state, d.pos)).collect();
        assert_eq!(rows, vec![(0, ProtoState::Rec, 3), (1, ProtoState::Rec, 8)]);
        assert_eq!((snap.reporter, snap.watchdog_ms), (0, 0));
        assert_eq!(snap.procs[1].order_len, 14);
        assert!(snap.to_string().contains("P1: Rec at 8/14 tasks"), "{snap}");
    }

    #[test]
    fn injected_delays_are_deterministic_and_slow_the_run() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let machine = MachineConfig::unit(2, 8);
        let clean =
            DesExecutor::new(&g, &sched, DesConfig::managed(machine.clone())).run().unwrap();
        let faulted = |seed: u64| {
            DesExecutor::new(
                &g,
                &sched,
                DesConfig::managed(machine.clone()).with_faults(FaultPlan::delay_heavy(seed)),
            )
            .run()
            .unwrap()
        };
        let a = faulted(5);
        let b = faulted(5);
        assert_eq!(a.parallel_time, b.parallel_time, "same seed must replay identically");
        assert_eq!(a.finish, b.finish);
        assert!(
            a.parallel_time > clean.parallel_time,
            "held-back messages must lengthen the critical path"
        );
        // Every task still completes; delays never change the work done.
        assert_eq!(a.finish.len(), g.num_tasks());
        let c = faulted(6);
        assert_ne!(
            (a.parallel_time, a.finish.clone()),
            (c.parallel_time, c.finish.clone()),
            "different seeds should perturb the timeline"
        );
    }

    #[test]
    fn traced_run_passes_the_checker_and_fills_metrics() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let machine = unit_machine(8); // tight: MAPs, packages, suspensions
        let ex = DesExecutor::new(
            &g,
            &sched,
            DesConfig::managed(machine).with_tracing(TraceConfig::default()),
        );
        let out = ex.run().unwrap();
        let trace = out.trace.as_ref().expect("tracing enabled");
        assert_eq!(trace.dropped(), 0);
        let spec = ex.plan().trace_spec(8);
        let rep = rapid_trace::check(&g, &sched, &spec, trace).expect("trace must be clean");
        assert!(rep.complete);
        assert_eq!(rep.tasks_run.iter().sum::<usize>(), g.num_tasks());
        assert_eq!(rep.maps, out.maps, "replayed MAP count must match the outcome");
        let metrics = out.metrics.as_ref().expect("metrics follow the trace");
        assert_eq!(metrics.iter().map(|mm| mm.tasks as usize).sum::<usize>(), g.num_tasks());
        assert!(metrics.iter().any(|mm| mm.pkgs_sent > 0));
        // Untraced runs stay lean.
        let bare = run_managed(&g, &sched, unit_machine(8)).unwrap();
        assert!(bare.trace.is_none() && bare.metrics.is_none());
    }
}
