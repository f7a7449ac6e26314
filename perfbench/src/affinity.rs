//! CPU pinning for the serve phases, through glibc's
//! `sched_getaffinity`/`sched_setaffinity` (the standard library has no
//! API for it).
//!
//! The server's threads and the load generator's share one CPU, so every
//! hand-off between them (request in, scoring worker, response out) is a
//! switch on that CPU. On a virtual machine a wake-up that crosses CPUs
//! goes through the hypervisor, and how long that takes follows the load
//! the host carries: left to the scheduler on a shared two-CPU machine,
//! the open-loop p50 median of ten runs moved by 44 % between two sets of
//! ten while the CPU-bound figures moved by 4 %. Pinned, the serve figures
//! move with the host's speed like the CPU-bound ones. The cost is that
//! they are those of a one-CPU server: a change in how its threads
//! overlap across CPUs does not show.

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and the threads it spawns from now on,
/// to `cpus`. Returns whether the kernel accepted the mask.
pub fn pin(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}
