//! Bug-museum seams: fixed bugs of this crate, re-planted behind a
//! thread-local switch so a test can show that the check written for
//! each still catches it. Debug-build only (`debug_assertions`) —
//! `#[cfg(test)]` would not reach an integration-test dependency build
//! of this crate, and the release build the tables and the benchmark
//! measure must not carry the seams.
//!
//! An armed seam stays armed until [`disarm`]: a planted bug is live on
//! every call that reaches it, as the original was.

use std::cell::Cell;

/// A re-planted bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// A fixed leak: [`crate::Kernel::timer_del`] disarms the timer but
    /// keeps its callback — and everything the callback captured, a
    /// removed driver's channels included — until the kernel is dropped.
    TimerDelKeepsCallback,
    /// A fixed dead line: [`crate::Kernel::free_irq`] drops the handler
    /// and the pending interrupt but keeps the disable depth and the
    /// mask bit, so a line freed while disabled never delivers again.
    FreeIrqKeepsMask,
    /// A fixed panic: [`crate::Kernel::request_irq`] skips the check for
    /// a line the controller lacks and registers the handler on it.
    RequestIrqPastTheEnd,
}

thread_local! {
    static ARMED: Cell<u8> = const { Cell::new(0) };
}

/// Plants `mutant` on this thread.
pub fn arm(mutant: Mutant) {
    ARMED.with(|a| a.set(a.get() | (1 << mutant as u8)));
}

/// Removes every planted bug on this thread.
pub fn disarm() {
    ARMED.with(|a| a.set(0));
}

pub(crate) fn armed(mutant: Mutant) -> bool {
    ARMED.with(|a| (a.get() >> mutant as u8) & 1 == 1)
}
