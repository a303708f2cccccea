//! The process's CPU clock: CPU time used by every thread of the
//! benchmark process, the engine's pool workers included.
//!
//! Every timing of an end-to-end metric is read from this clock. On a
//! shared virtual machine the wall clock also counts time the cores
//! were given to other guests (steal) or to other processes, which
//! comes in bursts of seconds; the kernel leaves both out of a task's
//! CPU time. See `README.md`, "End-to-end metrics".

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CpuTime(Duration);

impl CpuTime {
    /// Reads the process's CPU clock.
    pub fn now() -> CpuTime {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec of the C layout.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        CpuTime(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }

    /// CPU time used since `earlier`.
    pub fn since(self, earlier: CpuTime) -> Duration {
        self.0.saturating_sub(earlier.0)
    }

    /// CPU time used since this reading.
    pub fn elapsed(self) -> Duration {
        CpuTime::now().since(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Busy work advances the CPU clock, which never runs backwards.
    #[test]
    fn cpu_clock_follows_busy_work() {
        let (c0, w0) = (CpuTime::now(), Instant::now());
        let mut x = 0u64;
        while w0.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let cpu = c0.elapsed();
        assert!(cpu >= Duration::from_millis(10), "{cpu:?} for 50 ms busy");
        assert!(CpuTime::now() >= c0);
    }
}
