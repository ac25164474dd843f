//! Virtual time and CPU accounting.

/// Which CPU consumer is charged for a span of busy time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuClass {
    /// Kernel-mode execution (driver nucleus, kernel subsystems, IRQs).
    Kernel,
    /// User-mode execution (decaf driver, driver library, marshaling).
    User,
}

/// A virtual nanosecond clock with per-class busy accounting.
///
/// Time only moves when someone charges work (`charge`) or the scheduler
/// idles forward (`advance_idle`). CPU utilization over an interval is
/// `busy / elapsed`, which is how the Table 3 utilization columns are
/// produced.
///
/// Three words and `Copy`: the kernel keeps it in a `Cell`, so a charge
/// is a load, three adds and a store, with no borrow flag to check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Clock {
    now_ns: u64,
    kernel_busy_ns: u64,
    user_busy_ns: u64,
}

impl Clock {
    /// A clock at time zero with no busy time.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advances time by `ns`, charging it to `class`.
    #[inline]
    pub fn charge(&mut self, class: CpuClass, ns: u64) {
        self.now_ns += ns;
        match class {
            CpuClass::Kernel => self.kernel_busy_ns += ns,
            CpuClass::User => self.user_busy_ns += ns,
        }
    }

    /// Advances time by `ns` without charging anyone (CPU idle).
    #[inline]
    pub fn advance_idle(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Total busy nanoseconds charged to `class` since creation.
    pub fn busy_ns(&self, class: CpuClass) -> u64 {
        match class {
            CpuClass::Kernel => self.kernel_busy_ns,
            CpuClass::User => self.user_busy_ns,
        }
    }

    /// A snapshot `(now, kernel_busy, user_busy)` for interval measurement.
    pub fn snapshot(&self) -> ClockSnapshot {
        ClockSnapshot {
            now_ns: self.now_ns,
            kernel_busy_ns: self.kernel_busy_ns,
            user_busy_ns: self.user_busy_ns,
        }
    }
}

/// A point-in-time capture of the clock, for measuring intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockSnapshot {
    /// Virtual time at the snapshot.
    pub now_ns: u64,
    /// Kernel busy time at the snapshot.
    pub kernel_busy_ns: u64,
    /// User busy time at the snapshot.
    pub user_busy_ns: u64,
}

impl ClockSnapshot {
    /// Elapsed virtual nanoseconds between `self` and a later snapshot.
    pub fn elapsed_ns(&self, later: &ClockSnapshot) -> u64 {
        later.now_ns.saturating_sub(self.now_ns)
    }

    /// Busy nanoseconds charged to `class` at the snapshot.
    pub fn busy_ns(&self, class: CpuClass) -> u64 {
        match class {
            CpuClass::Kernel => self.kernel_busy_ns,
            CpuClass::User => self.user_busy_ns,
        }
    }

    /// Per-class busy nanoseconds charged between `self` and a later
    /// snapshot — what trace-span self-time reconciles against.
    pub fn busy_since(&self, later: &ClockSnapshot, class: CpuClass) -> u64 {
        later.busy_ns(class).saturating_sub(self.busy_ns(class))
    }

    /// CPU utilization (0.0–1.0) between `self` and a later snapshot.
    pub fn utilization(&self, later: &ClockSnapshot) -> f64 {
        let elapsed = self.elapsed_ns(later);
        if elapsed == 0 {
            return 0.0;
        }
        let busy =
            (later.kernel_busy_ns - self.kernel_busy_ns) + (later.user_busy_ns - self.user_busy_ns);
        busy as f64 / elapsed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_advances_time_and_busy() {
        let mut c = Clock::new();
        c.charge(CpuClass::Kernel, 100);
        c.charge(CpuClass::User, 50);
        c.advance_idle(850);
        assert_eq!(c.now_ns(), 1000);
        assert_eq!(c.busy_ns(CpuClass::Kernel), 100);
        assert_eq!(c.busy_ns(CpuClass::User), 50);
    }

    #[test]
    fn utilization_between_snapshots() {
        let mut c = Clock::new();
        let before = c.snapshot();
        c.charge(CpuClass::Kernel, 200);
        c.advance_idle(800);
        let after = c.snapshot();
        assert_eq!(before.elapsed_ns(&after), 1000);
        assert!((before.utilization(&after) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn zero_interval_is_zero_utilization() {
        let c = Clock::new();
        let s = c.snapshot();
        assert_eq!(s.utilization(&s), 0.0);
    }
}
