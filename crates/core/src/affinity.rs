//! Worker→core pinning.
//!
//! Pinning a worker to one core keeps the kernel from migrating it, so
//! its stack, its operators' state and the scheduler lines it touches
//! stay in that core's cache (and, on NUMA hosts, first-touch faults
//! its memory onto that core's node).
//!
//! Implemented with direct `extern "C"` declarations of Linux's
//! `sched_setaffinity` / `sched_getaffinity` (no libc crate — this
//! workspace builds fully offline), so the module exists on Linux only.
//! When the syscall rejects the mask (e.g. a cgroup cpuset excluding the
//! requested core), pinning is a graceful no-op and the caller learns it
//! via the `false` return.

/// Maximum CPU index addressable by the fixed-size mask (matches the
/// kernel's default `CPU_SETSIZE`).
pub const MAX_CORES: usize = 1024;

/// `cpu_set_t`: a 1024-bit mask, as glibc lays it out.
#[repr(C)]
struct CpuSet {
    bits: [u64; MAX_CORES / 64],
}

extern "C" {
    /// glibc wrapper; `pid == 0` applies to the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
    /// glibc wrapper; `pid == 0` reads the calling thread's mask.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
}

/// Pin the *calling thread* to `core`. Returns whether the kernel
/// accepted the mask; `false` is always safe to ignore (the thread
/// simply keeps its previous affinity).
pub fn pin_to_core(core: usize) -> bool {
    if core >= MAX_CORES {
        return false;
    }
    let mut set = CpuSet {
        bits: [0; MAX_CORES / 64],
    };
    set.bits[core / 64] |= 1u64 << (core % 64);
    // Safety: the mask is a plain POD local of the exact size we pass;
    // the call only reads it.
    unsafe {
        sched_setaffinity(
            0,
            std::mem::size_of::<CpuSet>(),
            &set as *const CpuSet as *const u8,
        ) == 0
    }
}

/// The set of cores the *calling thread* may run on, ascending
/// (`sched_getaffinity`). Empty when the mask cannot be read.
///
/// Runtimes sample this once at startup and round-robin their workers
/// *within* the allowed set: a runtime confined to a cgroup cpuset of
/// cores `{4, 5}` pins workers `4, 5, 4, 5, …` rather than counting
/// `0, 1, 2, …` from core 0 — so co-located runtimes with disjoint
/// cpusets stop piling onto (and failing to pin) the same low cores.
pub fn allowed_cores() -> Vec<usize> {
    let mut set = CpuSet {
        bits: [0; MAX_CORES / 64],
    };
    // Safety: the mask is a plain POD local of the exact size we pass;
    // the call only writes into it.
    let rc = unsafe {
        sched_getaffinity(
            0,
            std::mem::size_of::<CpuSet>(),
            &mut set as *mut CpuSet as *mut u8,
        )
    };
    if rc != 0 {
        return Vec::new();
    }
    let mut cores = Vec::new();
    for (word, &bits) in set.bits.iter().enumerate() {
        let mut b = bits;
        while b != 0 {
            let bit = b.trailing_zeros() as usize;
            cores.push(word * 64 + bit);
            b &= b - 1;
        }
    }
    cores
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_core_is_rejected() {
        assert!(!pin_to_core(MAX_CORES));
        assert!(!pin_to_core(usize::MAX));
    }

    #[test]
    fn allowed_cores_reflects_a_narrowed_mask() {
        // Narrow a scratch thread's mask to one allowed core and read
        // it back: the regression this guards is the runtime pinning
        // within the *actual* mask instead of assuming cores 0..cpus.
        std::thread::spawn(|| {
            let all = allowed_cores();
            assert!(!all.is_empty(), "mask readable on linux");
            assert!(all.windows(2).all(|w| w[0] < w[1]), "ascending");
            let target = *all.last().unwrap();
            assert!(pin_to_core(target), "cores in the mask are pinnable");
            assert_eq!(allowed_cores(), vec![target], "narrowed mask read back");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn pinning_some_core_succeeds_on_linux() {
        // Run in a scratch thread so the test harness thread keeps its
        // affinity. A cgroup cpuset may exclude low core ids, so accept
        // any pinnable core within the first MAX_CORES.
        let ok = std::thread::spawn(|| (0..MAX_CORES).any(pin_to_core))
            .join()
            .unwrap();
        assert!(ok, "no core in the mask range was pinnable");
    }
}
