//! Core pinning: one raw `sched_setaffinity` call, no libc.
//!
//! The executor's worker threads float; nothing in a run pins them. The
//! benchmark's host probe pins its contention threads with
//! [`pin_current_thread`]. On non-Linux or non-x86-64 hosts pinning is a
//! no-op.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_safe_to_attempt() {
        // Must not crash whatever the host supports; success optional. On
        // its own thread, so the test harness's thread keeps its mask.
        std::thread::spawn(|| {
            let _ = pin_current_thread(0);
        })
        .join()
        .unwrap();
    }
}
