//! Core pinning and NUMA-aware worker→core assignment.
//!
//! The threaded executor can pin each simulated processor's OS thread
//! to one physical core so workers stop migrating between cores
//! mid-protocol (migration flushes the L1/L2 working set the arena and
//! RMA windows live in). Assignment is NUMA-aware: workers are spread
//! round-robin across the nodes reported by
//! `/sys/devices/system/node/node*/cpulist`, filling cores within a
//! node in id order, so communicating pairs land close while the
//! machine's memory bandwidth is used evenly.
//!
//! Everything degrades gracefully: on non-Linux or non-x86-64 hosts,
//! or when sysfs is absent (containers), pinning becomes a no-op and
//! the assignment falls back to round-robin over the online CPUs. No
//! libc is linked — the one syscall needed (`sched_setaffinity`) is
//! issued directly.

/// Number of CPUs the current process may run on (best effort; at
/// least 1).
pub fn online_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Parse a sysfs cpulist string (`"0-3,8,10-11"`) into CPU ids.
fn parse_cpulist(s: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in s.trim().split(',') {
        if part.is_empty() {
            continue;
        }
        if let Some((a, b)) = part.split_once('-') {
            if let (Ok(a), Ok(b)) = (a.trim().parse::<usize>(), b.trim().parse::<usize>()) {
                cpus.extend(a..=b);
            }
        } else if let Ok(v) = part.trim().parse::<usize>() {
            cpus.push(v);
        }
    }
    cpus
}

/// The machine's NUMA topology: one CPU-id list per node, read from
/// sysfs. Falls back to a single node holding `0..online_cpus()` when
/// the topology is unreadable.
pub fn numa_nodes() -> Vec<Vec<usize>> {
    let mut nodes: Vec<(usize, Vec<usize>)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir("/sys/devices/system/node") {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(idx) = name.strip_prefix("node").and_then(|n| n.parse::<usize>().ok()) else {
                continue;
            };
            if let Ok(list) = std::fs::read_to_string(entry.path().join("cpulist")) {
                let cpus = parse_cpulist(&list);
                if !cpus.is_empty() {
                    nodes.push((idx, cpus));
                }
            }
        }
    }
    if nodes.is_empty() {
        return vec![(0..online_cpus()).collect()];
    }
    nodes.sort_unstable_by_key(|&(idx, _)| idx);
    nodes.into_iter().map(|(_, cpus)| cpus).collect()
}

/// NUMA-aware worker→core plan: `plan[w]` is the CPU worker `w` should
/// pin to, or `None` when the host has fewer distinct cores than
/// workers (oversubscribed — pinning would serialize workers that must
/// interleave to keep the Theorem-1 service obligations live, so those
/// workers float).
pub fn assign_cores(nworkers: usize) -> Vec<Option<usize>> {
    let nodes = numa_nodes();
    let total: usize = nodes.iter().map(Vec::len).sum();
    if nworkers > total {
        return vec![None; nworkers];
    }
    // Round-robin across nodes, consuming each node's CPUs in order.
    let mut cursors = vec![0usize; nodes.len()];
    let mut plan = Vec::with_capacity(nworkers);
    let mut node = 0usize;
    while plan.len() < nworkers {
        let start = node;
        loop {
            let n = node % nodes.len();
            node += 1;
            if cursors[n] < nodes[n].len() {
                plan.push(Some(nodes[n][cursors[n]]));
                cursors[n] += 1;
                break;
            }
            if node - start > nodes.len() {
                // All nodes exhausted (can't happen given the total
                // check above, but never loop forever on weird sysfs).
                plan.push(None);
                break;
            }
        }
    }
    plan
}

/// Pin the calling thread to `cpu`. Returns `true` on success; a
/// failure (or an unsupported platform) leaves the thread floating,
/// which is always safe.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_current_thread(cpu: usize) -> bool {
    const SETSIZE_BITS: usize = 1024;
    if cpu >= SETSIZE_BITS {
        return false;
    }
    let mut mask = [0u64; SETSIZE_BITS / 64];
    mask[cpu / 64] |= 1u64 << (cpu % 64);
    let ret: i64;
    // SAFETY: sched_setaffinity(0, len, mask) only reads `mask` and
    // affects scheduling of the calling thread; the buffer outlives the
    // call and the clobbered registers are declared.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret, // __NR_sched_setaffinity
            in("rdi") 0,                    // pid 0 = calling thread
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly)
        );
    }
    ret == 0
}

/// Pin the calling thread to `cpu` (unsupported platform: no-op).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_current_thread(_cpu: usize) -> bool {
    false
}

/// The CPUs the calling thread may run on (`sched_getaffinity`), in id
/// order; `None` when the call fails.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn current_affinity() -> Option<Vec<usize>> {
    const SETSIZE_BITS: usize = 1024;
    let mut mask = [0u64; SETSIZE_BITS / 64];
    let ret: i64;
    // SAFETY: sched_getaffinity(0, len, mask) writes at most `len` bytes
    // into `mask`, which outlives the call; the clobbered registers are
    // declared.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 204i64 => ret, // __NR_sched_getaffinity
            in("rdi") 0,                    // pid 0 = calling thread
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    (ret > 0).then(|| (0..SETSIZE_BITS).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).collect())
}

/// The CPUs the calling thread may run on (unsupported platform: unknown).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn current_affinity() -> Option<Vec<usize>> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpulist_parsing() {
        assert_eq!(parse_cpulist("0-3,8,10-11\n"), vec![0, 1, 2, 3, 8, 10, 11]);
        assert_eq!(parse_cpulist("5"), vec![5]);
        assert_eq!(parse_cpulist(""), Vec::<usize>::new());
    }

    #[test]
    fn assignment_covers_distinct_cores_or_floats() {
        let total: usize = numa_nodes().iter().map(Vec::len).sum();
        let plan = assign_cores(total);
        let mut pinned: Vec<usize> = plan.iter().flatten().copied().collect();
        pinned.sort_unstable();
        pinned.dedup();
        assert_eq!(pinned.len(), total, "a full machine gets every core exactly once");
        // Oversubscription always floats.
        assert!(assign_cores(total + 1).iter().all(Option::is_none));
    }

    #[test]
    fn pinning_is_safe_to_attempt() {
        // Must not crash whatever the host supports; success optional. On
        // its own thread, so the test harness's thread keeps its mask.
        std::thread::spawn(|| {
            let before = current_affinity();
            if before.as_ref().is_some_and(|b| b.contains(&0)) && pin_current_thread(0) {
                assert_eq!(current_affinity(), Some(vec![0]));
            }
        })
        .join()
        .unwrap();
    }
}
