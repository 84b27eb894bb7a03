//! The comm surface: the [`Port`] trait and its two implementations.
//!
//! The five-state protocol in `rapid-rt` is written once against a
//! [`Port`] — hand an address package toward a destination, drain this
//! processor's incoming packages — so that the threads' mailbox board
//! ([`DirectMachine`]) and the discrete-event simulator's virtual-time
//! slots ([`VirtualMachine`]) are swappable without touching protocol
//! code. Fault injection and tracing are executor options, not the
//! port's.
//!
//! A machine is the shared, `Sync` half (the slots and who sleeps); each
//! worker obtains its own mutable port. Both keep the paper's scheme
//! (§3.2): one slot per ordered pair of processors, and a sender whose
//! slot is still occupied blocks in MAP, servicing RA and CQ, until the
//! receiver has drained it.
//!
//! # Why one slot suffices
//!
//! On an owner-compute schedule whose graph writes an object before any
//! remote read (what the executors require), a fault-free sender never
//! finds its slot occupied. Every object a MAP announces to `q` is first
//! read by a task of that MAP's own window
//! (`RtPlan::address_plan` cuts a window at a task boundary, so a MAP
//! allocates only what its own tasks use); that task's REC waits for
//! `q`'s put; `q` can put only after it has drained the package that
//! carries the address. So each package is consumed before its sender
//! reaches the next MAP, and there is nothing for a sender-side buffer to
//! hold. The blocking leg is still reachable — an injected mailbox
//! rejection is handled exactly like an occupied slot — and stays
//! covered by the chaos suites.
//!
//! [`DirectMachine`] also holds its workers' [`Sleepers`]: a port that
//! deposits a package wakes the destination if it sleeps, and a port that
//! drains a slot wakes the source, which may be waiting for that slot (a
//! blocked MAP).

use crate::mailbox::{AddrEntry, AddrPackage, MailboxBoard};
use crate::wait::Sleepers;
use std::sync::Mutex;

/// A worker's mutable comm endpoint.
pub trait Port {
    /// Hand one address package toward `dst`. `true`: the slot took it
    /// and `pkg` is cleared. `false`: the slot still holds the previous
    /// package; `pkg` is left untouched and the sender must
    /// service-and-retry (the paper's blocking MAP).
    fn send_package(&mut self, dst: usize, pkg: &mut AddrPackage) -> bool;

    /// RA service: drain this processor's incoming packages, invoking
    /// `f(src, package)` once per package, a source's packages in the
    /// order it sent them. Returns the number of packages consumed.
    fn drain<F: FnMut(usize, &[AddrEntry])>(&mut self, f: F) -> usize;
}

/// The threads' machine: one single-slot mailbox per processor pair.
#[derive(Debug)]
pub struct DirectMachine {
    board: MailboxBoard,
    sleepers: Sleepers,
}

impl DirectMachine {
    /// Machine for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        DirectMachine { board: MailboxBoard::new(nprocs), sleepers: Sleepers::new(nprocs) }
    }

    /// The sleeper cells of this machine's workers.
    pub fn sleepers(&self) -> &Sleepers {
        &self.sleepers
    }

    /// The mailbox board (stall-snapshot diagnostics).
    pub fn board(&self) -> &MailboxBoard {
        &self.board
    }

    /// The mutable endpoint for processor `p`. Each processor must obtain
    /// exactly one port; ports are not `Sync` and live on their worker's
    /// stack.
    pub fn port(&self, p: usize) -> DirectPort<'_> {
        DirectPort { board: &self.board, sleepers: &self.sleepers, p, scratch: Vec::new() }
    }
}

/// Per-worker endpoint of [`DirectMachine`].
#[derive(Debug)]
pub struct DirectPort<'m> {
    board: &'m MailboxBoard,
    sleepers: &'m Sleepers,
    p: usize,
    scratch: Vec<AddrEntry>,
}

impl Port for DirectPort<'_> {
    fn send_package(&mut self, dst: usize, pkg: &mut AddrPackage) -> bool {
        let sent = self.board.slot(self.p, dst).try_send_from(pkg);
        if sent {
            self.sleepers.wake(dst);
        }
        sent
    }

    fn drain<F: FnMut(usize, &[AddrEntry])>(&mut self, mut f: F) -> usize {
        let sleepers = self.sleepers;
        // An emptied slot is what its source may be waiting for.
        self.board.drain_for_into(self.p, &mut self.scratch, |src, pkg| {
            sleepers.wake(src);
            f(src, pkg)
        })
    }
}

/// The DES machine: a package is deposited with a virtual arrival time
/// and becomes drainable only once the receiving port's clock passes it.
/// Each pair is the paper's single slot: a send while the previous package
/// is in flight or undrained is refused.
#[derive(Debug)]
pub struct VirtualMachine {
    nprocs: usize,
    /// The package in flight or undrained per (src, dst) pair
    /// (`src * nprocs + dst`): virtual arrival time plus entries.
    slots: Mutex<Vec<Option<(f64, AddrPackage)>>>,
}

impl VirtualMachine {
    /// Virtual machine for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        VirtualMachine { nprocs, slots: Mutex::new(vec![None; nprocs * nprocs]) }
    }

    /// Date the package `src` last handed toward `dst`: it becomes
    /// drainable once the receiver's clock reaches `arrive`. The sender
    /// pays for a hand-off only once it is accepted, so the arrival time
    /// is known only then.
    pub fn date_last(&self, src: usize, dst: usize, arrive: f64) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pkg) = &mut slots[src * self.nprocs + dst] {
            pkg.0 = arrive;
        }
    }

    /// The endpoint for processor `p`.
    pub fn port(&self, p: usize) -> VirtualPort<'_> {
        VirtualPort { m: self, p, now: 0.0 }
    }
}

/// Per-processor endpoint of [`VirtualMachine`]. The driving simulator
/// owns the virtual clock: a package is accepted undated and stays in
/// flight until [`VirtualMachine::date_last`] gives it its arrival time,
/// and [`VirtualPort::set_now`] gates which incoming packages
/// [`Port::drain`] may consume.
#[derive(Debug)]
pub struct VirtualPort<'m> {
    m: &'m VirtualMachine,
    p: usize,
    now: f64,
}

impl VirtualPort<'_> {
    /// Virtual receive clock: [`Port::drain`] consumes only packages whose
    /// arrival time is `<= now`.
    pub fn set_now(&mut self, now: f64) {
        self.now = now;
    }
}

impl Port for VirtualPort<'_> {
    fn send_package(&mut self, dst: usize, pkg: &mut AddrPackage) -> bool {
        let mut slots = self.m.slots.lock().unwrap_or_else(|e| e.into_inner());
        let slot = &mut slots[self.p * self.m.nprocs + dst];
        if slot.is_some() {
            return false;
        }
        *slot = Some((f64::INFINITY, std::mem::take(pkg)));
        true
    }

    fn drain<F: FnMut(usize, &[AddrEntry])>(&mut self, mut f: F) -> usize {
        let mut npkgs = 0;
        for src in (0..self.m.nprocs).filter(|&src| src != self.p) {
            // The callback runs outside the lock: the simulator's handler
            // charges costs and records trace events and must be free to
            // touch the machine again.
            let arrived = {
                let mut slots = self.m.slots.lock().unwrap_or_else(|e| e.into_inner());
                slots[src * self.m.nprocs + self.p].take_if(|pkg| pkg.0 <= self.now)
            };
            if let Some((_, pkg)) = arrived {
                f(src, &pkg);
                npkgs += 1;
            }
        }
        npkgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkg(objs: &[u32]) -> AddrPackage {
        objs.iter().map(|&o| AddrEntry { obj: o, offset: o as u64 * 8 }).collect()
    }

    #[test]
    fn direct_port_matches_single_slot_semantics() {
        let m = DirectMachine::new(2);
        let mut tx = m.port(0);
        let mut rx = m.port(1);
        let mut p = pkg(&[1]);
        assert!(tx.send_package(1, &mut p));
        assert!(p.is_empty());
        let mut p2 = pkg(&[2]);
        assert!(!tx.send_package(1, &mut p2));
        assert_eq!(p2.len(), 1, "busy send leaves the package intact");
        let mut got = Vec::new();
        let n = rx.drain(|src, pkg| got.push((src, pkg.to_vec())));
        assert_eq!(n, 1);
        assert_eq!(got, vec![(0, pkg(&[1]))]);
        assert!(tx.send_package(1, &mut p2));
    }

    /// The two port-side events a worker can wait for — a package handed
    /// to it, its own package drained from a peer's slot — end its park.
    #[test]
    fn ports_wake_the_worker_they_serve() {
        use crate::wait::tests::parked_until;
        use std::time::Duration;
        let woken = |slept: Duration, what: &str| {
            assert!(slept < Duration::from_secs(5), "{what}: slept {slept:?}, to its bound")
        };

        let m = DirectMachine::new(2);
        let (mut p0, mut p1) = (m.port(0), m.port(1));
        let slept = parked_until(
            m.sleepers(),
            || m.board.slot(1, 0).is_full(),
            || assert!(p1.send_package(0, &mut pkg(&[1]))),
        );
        woken(slept, "send_package");
        assert!(p0.send_package(1, &mut pkg(&[2])));
        let slept = parked_until(
            m.sleepers(),
            || !m.board.slot(0, 1).is_full(),
            || assert_eq!(p1.drain(|_, _| {}), 1),
        );
        woken(slept, "drain");
    }

    #[test]
    fn virtual_port_gates_on_arrival_time() {
        let m = VirtualMachine::new(2);
        let mut tx = m.port(0);
        let mut rx = m.port(1);
        let mut p = pkg(&[1]);
        assert!(tx.send_package(1, &mut p));
        // A second in-flight package is refused.
        let mut p2 = pkg(&[2]);
        assert!(!tx.send_package(1, &mut p2));
        rx.set_now(1e9);
        assert_eq!(rx.drain(|_, _| panic!("not dated yet")), 0);
        m.date_last(0, 1, 5.0);
        rx.set_now(4.9);
        assert_eq!(rx.drain(|_, _| panic!("not arrived yet")), 0);
        rx.set_now(5.0);
        let mut got = Vec::new();
        assert_eq!(rx.drain(|src, pkg| got.push((src, pkg[0].obj))), 1);
        assert_eq!(got, vec![(0, 1)]);
        assert!(tx.send_package(1, &mut p2));
    }
}
