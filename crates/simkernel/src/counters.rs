//! Counter sets, declared once.
//!
//! Every number the tables report is a counter read over a window, and
//! counters combine by one rule: a count adds across shards and
//! subtracts across a window; a high-water mark takes the larger value
//! across shards and keeps its closing value across a window. A counter
//! set states which of its fields is which in its declaration —
//! [`counters!`](macro@crate::counters) — and the rule is generated from that,
//! so no set writes it out by hand. [`Bump`] is the one way a counter
//! set kept in a `Cell` is updated in place.

use std::cell::Cell;

/// Declares a counter set: a struct of `u64` counters, each tagged `sum`
/// (a count) or `max` (a high-water mark).
///
/// ```
/// decaf_simkernel::counters! {
///     /// Counters for one queue.
///     pub struct QueueStats {
///         /// Entries queued.
///         queued: sum,
///         /// Most entries waiting at once.
///         depth_hwm: max,
///     }
/// }
/// let mut all = QueueStats { queued: 3, depth_hwm: 2 };
/// all.merge(&QueueStats { queued: 4, depth_hwm: 5 });
/// assert_eq!(all, QueueStats { queued: 7, depth_hwm: 5 });
/// ```
///
/// It expands to the struct — the same fields in the same order, each a
/// `pub u64` with its doc, deriving `Debug, Default, Clone, Copy,
/// PartialEq, Eq` — and two methods: `merge(&mut self, &Self)` and
/// `since(&self, base: &Self) -> Self`.
#[macro_export]
macro_rules! counters {
    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = u64::max($a, $b) };
    (@since sum, $now:expr, $then:expr) => { $now - $then };
    (@since max, $now:expr, $then:expr) => { $now };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* $field:ident: $rule:ident),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $name {
            /// Folds `other`'s counters into these — how N sets (one per
            /// shard) are presented as one: each count adds, and each
            /// high-water mark takes the larger value (sets fill
            /// independently; a sum would report a level no one of them
            /// ever reached).
            #[inline]
            pub fn merge(&mut self, other: &Self) {
                $($crate::counters!(@merge $rule, self.$field, other.$field);)*
            }

            /// What happened since `base` was read off the same set: each
            /// count minus its baseline, and each high-water mark as it
            /// stands now. `base.merge(&now.since(&base))` is `now`.
            pub fn since(&self, base: &Self) -> Self {
                $name {
                    $($field: $crate::counters!(@since $rule, self.$field, base.$field),)*
                }
            }
        }
    };
}

/// Updates a counter set kept in a `Cell` in place.
pub trait Bump<T> {
    /// Reads the value, lets `f` change it, and writes it back.
    fn bump(&self, f: impl FnOnce(&mut T));
}

impl<T: Copy> Bump<T> for Cell<T> {
    #[inline]
    fn bump(&self, f: impl FnOnce(&mut T)) {
        let mut v = self.get();
        f(&mut v);
        self.set(v);
    }
}

#[cfg(test)]
mod tests {
    crate::counters! {
        /// One count and one high-water mark.
        pub struct Pair {
            /// A count.
            n: sum,
            /// A high-water mark.
            hwm: max,
        }
    }

    #[test]
    fn merge_sums_the_counts_and_takes_the_larger_mark() {
        let mut a = Pair { n: 3, hwm: 7 };
        a.merge(&Pair { n: 4, hwm: 5 });
        assert_eq!(a, Pair { n: 7, hwm: 7 });
        a.merge(&Pair { n: 1, hwm: 9 });
        assert_eq!(a, Pair { n: 8, hwm: 9 });
    }

    #[test]
    fn a_baseline_merged_with_what_followed_is_the_closing_value() {
        // Monotone: the count only grows and the mark never falls.
        let base = Pair { n: 10, hwm: 4 };
        for now in [
            base,
            Pair { n: 10, hwm: 6 },
            Pair { n: 25, hwm: 4 },
            Pair { n: 11, hwm: 9 },
        ] {
            let mut back = base;
            back.merge(&now.since(&base));
            assert_eq!(back, now);
        }
    }

    #[test]
    fn since_subtracts_the_counts_and_keeps_the_closing_mark() {
        // A closing mark below the baseline's tells "keep" apart from
        // "take the larger" and from "subtract".
        let window = Pair { n: 12, hwm: 3 }.since(&Pair { n: 5, hwm: 8 });
        assert_eq!(window, Pair { n: 7, hwm: 3 });
    }
}
