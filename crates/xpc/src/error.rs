//! XPC error type.

use decaf_xdr::XdrError;
use std::fmt;

/// Result alias for XPC operations.
pub type XpcResult<T> = Result<T, XpcError>;

/// Errors surfaced by cross-domain calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XpcError {
    /// Marshaling or unmarshaling failed.
    Xdr(XdrError),
    /// The named procedure is not registered in the target domain.
    UnknownProc {
        /// Target domain name.
        domain: String,
        /// Procedure that was requested.
        proc: String,
    },
    /// The user-level handler panicked; the kernel survives, the decaf
    /// driver needs recovery.
    DecafFault(String),
    /// A call was attempted to a domain with no registered state.
    UnknownDomain(String),
    /// Deferred handlers kept re-deferring and the flush loop gave up
    /// with this many calls still parked — program order is broken.
    FlushDiverged(usize),
    /// The data-path ring or its buffer pool is out of capacity and a
    /// doorbell did not relieve it: the producer must back off.
    Backpressure(String),
    /// A sharded call could not be steered to one shard: its object
    /// arguments are homed on different shards, or an argument has no
    /// recorded home (home-channel pinning violated).
    ShardConflict(String),
    /// The request itself is malformed — e.g. a URB whose segment chain
    /// is shorter than its requested length. Unlike
    /// [`XpcError::Backpressure`] no amount of reclaim-and-retry can
    /// help: the caller's request must change.
    InvalidRequest(String),
    /// A call passes a different number of object arguments than its
    /// procedure declares — refused where it is made, not at the flush
    /// that would cross it.
    ArgCount {
        /// Object arguments the procedure declares.
        declared: usize,
        /// Object arguments the call passed.
        given: usize,
    },
}

impl fmt::Display for XpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XpcError::Xdr(e) => write!(f, "marshaling error: {e}"),
            XpcError::UnknownProc { domain, proc } => {
                write!(f, "no procedure `{proc}` registered in {domain}")
            }
            XpcError::DecafFault(msg) => write!(f, "decaf driver fault: {msg}"),
            XpcError::UnknownDomain(d) => write!(f, "unknown domain `{d}`"),
            XpcError::FlushDiverged(n) => {
                write!(
                    f,
                    "deferred-call flush diverged with {n} calls still queued"
                )
            }
            XpcError::Backpressure(what) => {
                write!(f, "data-path backpressure: {what}")
            }
            XpcError::ShardConflict(what) => {
                write!(f, "shard steering conflict: {what}")
            }
            XpcError::InvalidRequest(what) => {
                write!(f, "invalid request: {what}")
            }
            XpcError::ArgCount { declared, given } => {
                write!(
                    f,
                    "{given} object arguments for a procedure declaring {declared}"
                )
            }
        }
    }
}

impl std::error::Error for XpcError {}

impl From<XdrError> for XpcError {
    fn from(e: XdrError) -> Self {
        XpcError::Xdr(e)
    }
}
