//! Pins a worker process to a single CPU. The sweep's job pool sizes
//! itself from the CPUs the process may run on, so pinned workers run one
//! job thread each and two workers never run more job threads than a
//! two-core machine has cores.

/// Words in the kernel CPU mask passed below (room for 1024 CPUs).
const MASK_WORDS: usize = 16;

#[repr(C)]
struct CpuMask([u64; MASK_WORDS]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// Restricts this process to the `n`-th (modulo count) CPU it may
/// currently run on, and returns that CPU's number.
pub fn pin_to_nth_cpu(n: usize) -> Result<usize, String> {
    let size = std::mem::size_of::<CpuMask>();
    let mut allowed = CpuMask([0; MASK_WORDS]);
    // SAFETY: `allowed` is a writable mask of exactly `size` bytes, and
    // pid 0 names the calling process.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpus: Vec<usize> = (0..MASK_WORDS * 64)
        .filter(|&c| allowed.0[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let Some(&cpu) = cpus.get(n % cpus.len().max(1)) else {
        return Err("no CPU in the affinity mask".to_string());
    };
    let mut one = CpuMask([0; MASK_WORDS]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable mask of exactly `size` bytes, and pid 0
    // names the calling process.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
