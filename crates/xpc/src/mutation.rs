//! Bug-museum seams of this crate, in the `decaf_simkernel::mutation`
//! pattern: a broken ordering re-planted behind a thread-local switch so
//! a test can show that the check written against it still catches it.
//! Debug-build only (`debug_assertions`) — `#[cfg(test)]` would not
//! reach an integration-test dependency build of this crate, and the
//! release build the tables and the benchmark measure must not carry the
//! seams. An armed seam stays armed until [`disarm`].
//!
//! (`shard::mutation` keeps the older one-shot seams of the fault
//! harness.)

use std::cell::Cell;

/// A planted bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// [`crate::XpcChannel::call_resolved`] crosses without flushing the
    /// deferred calls parked before it: a register read overtakes the
    /// posted register writes the driver issued first — the ordering a
    /// synchronous call promises.
    SyncCallSkipsFlush,
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
