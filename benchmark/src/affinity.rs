//! Thread CPU affinity through the C library's `sched_{get,set}affinity`
//! (no `libc` crate is vendored, so the two functions are declared here).
//! A refused or unsupported call is reported, never fatal: the run goes
//! on unpinned and prints `pinned false`.

/// `cpu_set_t` is 1024 bits on Linux.
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending; empty when the
/// kernel will not say.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
    }
    (0..WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and every thread it spawns afterwards)
/// to `cpus`. Returns whether the kernel accepted the mask.
pub fn restrict(cpus: &[usize]) -> bool {
    let mut mask = [0u64; WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = mask;
        false
    }
}

/// Pins the calling thread to the `i`-th CPU of `allowed` (wrapping), so
/// worker *i* sits on CPU *i* wherever the container's CPU set starts.
pub fn pin_worker(allowed: &[usize], i: usize) -> bool {
    !allowed.is_empty() && restrict(&[allowed[i % allowed.len()]])
}
