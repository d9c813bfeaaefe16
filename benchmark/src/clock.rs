//! CPU clocks the gated timings are read from.
//!
//! The benchmark runs on shared virtual machines whose vCPUs the hypervisor
//! takes away for milliseconds at a time (steal), and the serving front runs
//! more threads than the two vCPUs it was tuned on. A wall clock charges those
//! stretches to whichever query was running, so tails and throughput followed
//! the neighbours. A thread's CPU clock advances only while the thread runs:
//! the kernel leaves steal out of it (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), as
//! well as time the thread waits for a CPU. The code under test is
//! single-threaded per query and never blocks, so on an idle host the two
//! clocks agree.

use std::time::Duration;

/// CPU time the calling thread has run (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    /// Linux's id of the calling thread's CPU clock.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unavailable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time run so far by this process's thread named `name`, read from
/// `/proc/self/task/<tid>/schedstat`; `None` if no such thread is found.
pub fn named_thread_cpu(name: &str) -> Option<Duration> {
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let dir = entry.ok()?.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited meanwhile
        };
        if comm.trim_end() == name {
            let stat = std::fs::read_to_string(dir.join("schedstat")).ok()?;
            return stat.split_whitespace().next()?.parse().ok().map(Duration::from_nanos);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_advances_and_schedstat_agrees_with_it() {
        let handle = std::thread::Builder::new()
            .name("clock-probe".into())
            .spawn(|| {
                let start = thread_cpu();
                let busy_until = start + Duration::from_millis(20);
                while thread_cpu() < busy_until {}
                let own = thread_cpu();
                let seen = named_thread_cpu("clock-probe").expect("the probe thread is listed");
                (own - start, own, seen)
            })
            .unwrap();
        let (ran, own, seen) = handle.join().unwrap();
        assert!(ran >= Duration::from_millis(20));
        assert!(seen.abs_diff(own) < Duration::from_millis(5), "{seen:?} vs {own:?}");
        assert!(named_thread_cpu("no-such-thread").is_none());
    }
}
