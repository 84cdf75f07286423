//! Spreading single-threaded work over the machine's CPUs.
//!
//! On a small virtual machine the CPUs need not run at the same speed:
//! one may be contended on the host while another is not, and which one
//! is slow changes every few seconds. A single-threaded op runs on
//! whichever CPU the scheduler keeps it on, so its time swings by that
//! choice alone. The one-thread workloads therefore pin consecutive ops
//! to each allowed CPU in turn and report the median over groups of
//! consecutive ops — one op per CPU — of the group's mean, which measures
//! the machine rather than one of its CPUs.

use std::io;

/// The CPUs this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status` (e.g. `0-1` or `0,2-5`).
pub fn allowed() -> io::Result<Vec<usize>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or_else(|| io::Error::other("no Cpus_allowed_list"))?;
    let bad = || io::Error::other(format!("bad Cpus_allowed_list {list:?}"));
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (
            lo.parse().map_err(|_| bad())?,
            hi.parse().map_err(|_| bad())?,
        );
        cpus.extend(lo..=hi);
    }
    if cpus.is_empty() || cpus.iter().any(|&c| c >= CPU_SETSIZE) {
        return Err(bad());
    }
    Ok(cpus)
}

/// Bits in glibc's `cpu_set_t`.
const CPU_SETSIZE: usize = 1024;

/// Pin the calling thread to one CPU (which must be below
/// `CPU_SETSIZE`, as every CPU [`allowed`] returns is).
pub fn pin(cpu: usize) -> io::Result<()> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; CPU_SETSIZE / 64];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised `cpu_set_t` of exactly
    // `cpusetsize` bytes for the whole call, which only reads it; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Means of consecutive groups of `size` values; a last, partial group is
/// dropped unless it is the only one.
pub fn group_means(values: &[f64], size: usize) -> Vec<f64> {
    let mean = |g: &[f64]| g.iter().sum::<f64>() / g.len() as f64;
    let whole: Vec<f64> = values.chunks_exact(size).map(mean).collect();
    if whole.is_empty() && !values.is_empty() {
        vec![mean(values)]
    } else {
        whole
    }
}
