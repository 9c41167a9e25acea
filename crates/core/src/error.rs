//! Error types for the Three-Chains core framework.

use std::fmt;

/// Errors surfaced by the ifunc framework.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A message frame could not be decoded.
    Frame(String),
    /// An ifunc name is not registered where it was expected to be.
    UnknownIfunc {
        /// The ifunc library name.
        name: String,
    },
    /// The receiver got a truncated (code-elided) frame for an ifunc it has
    /// never seen — the caching protocol's failure mode when sender and
    /// receiver state diverge.
    TruncatedWithoutRegistration {
        /// The ifunc library name.
        name: String,
    },
    /// Building the ifunc library (toolchain step) failed.
    Toolchain(String),
    /// JIT compilation, linking or execution failed on the target.
    Jit(String),
    /// Loading a binary ifunc failed on the target.
    BinaryLoad(String),
    /// The requested Active Message handler is not predeployed on the target.
    UnknownAmHandler {
        /// Handler name.
        name: String,
    },
    /// A simulation-level invariant was violated (bad node id, etc.).
    Sim(String),
    /// A cluster transport failed to move or decode a message, or a node
    /// reported a failure through the transport's error channel.
    Transport(String),
    /// Waiting for a completion gave up: the transport went quiescent (or hit
    /// its step budget) without the expected completion arriving.
    WaitTimeout {
        /// Description of what was being waited for.
        what: String,
    },
    /// A peer process closed its connection (or was killed) outside a
    /// graceful shutdown — the cross-process analogue of a node death.
    PeerDisconnected {
        /// Rank of the vanished peer.
        rank: usize,
        /// What the socket layer observed.
        detail: String,
    },
    /// A memory read through a transport yielded fewer bytes than requested
    /// (e.g. [`crate::cluster::Cluster::read_u64`] against a transport that
    /// could not serve the full width).
    ShortRead {
        /// Node the read addressed.
        rank: usize,
        /// Address of the read.
        addr: u64,
        /// Bytes requested.
        wanted: usize,
        /// Bytes the transport actually returned.
        got: usize,
    },
    /// A length asked for — off the wire, or by executing code — exceeds
    /// what the message it names could carry; refused before anything was
    /// allocated for it.
    TooLarge {
        /// What asked (`GET`, `tc_put`, `tc_forward_self`).
        what: String,
        /// The length asked for.
        len: u64,
        /// The most it accepts.
        max: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Frame(msg) => write!(f, "ifunc frame error: {msg}"),
            CoreError::UnknownIfunc { name } => write!(f, "ifunc `{name}` is not registered"),
            CoreError::TruncatedWithoutRegistration { name } => write!(
                f,
                "received a code-elided frame for ifunc `{name}` which was never registered here"
            ),
            CoreError::Toolchain(msg) => write!(f, "ifunc toolchain error: {msg}"),
            CoreError::Jit(msg) => write!(f, "target-side JIT error: {msg}"),
            CoreError::BinaryLoad(msg) => write!(f, "binary ifunc load error: {msg}"),
            CoreError::UnknownAmHandler { name } => {
                write!(
                    f,
                    "active-message handler `{name}` is not predeployed on this node"
                )
            }
            CoreError::Sim(msg) => write!(f, "cluster simulation error: {msg}"),
            CoreError::Transport(msg) => write!(f, "cluster transport error: {msg}"),
            CoreError::WaitTimeout { what } => {
                write!(f, "timed out waiting for completion: {what}")
            }
            CoreError::PeerDisconnected { rank, detail } => {
                write!(f, "peer rank {rank} disconnected: {detail}")
            }
            CoreError::ShortRead {
                rank,
                addr,
                wanted,
                got,
            } => write!(
                f,
                "short read on rank {rank} at {addr:#x}: wanted {wanted} bytes, got {got}"
            ),
            CoreError::TooLarge { what, len, max } => {
                write!(f, "{what} of {len} bytes exceeds its limit of {max}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<tc_bitir::BitirError> for CoreError {
    fn from(e: tc_bitir::BitirError) -> Self {
        CoreError::Toolchain(e.to_string())
    }
}

impl From<tc_jit::JitError> for CoreError {
    fn from(e: tc_jit::JitError) -> Self {
        match e {
            tc_jit::JitError::TooLarge { what, len, max } => CoreError::TooLarge { what, len, max },
            e => CoreError::Jit(e.to_string()),
        }
    }
}

impl From<tc_binfmt::BinfmtError> for CoreError {
    fn from(e: tc_binfmt::BinfmtError) -> Self {
        CoreError::BinaryLoad(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_messages() {
        let e: CoreError = tc_bitir::BitirError::Decode("bad".into()).into();
        assert!(e.to_string().contains("bad"));
        let e: CoreError = tc_jit::JitError::UnresolvedSymbol {
            symbol: "puts".into(),
        }
        .into();
        assert!(e.to_string().contains("puts"));
        let e: CoreError = tc_binfmt::BinfmtError::UndefinedSymbol { symbol: "x".into() }.into();
        assert!(matches!(e, CoreError::BinaryLoad(_)));
    }

    #[test]
    fn display_mentions_names() {
        assert!(CoreError::UnknownIfunc { name: "tsi".into() }
            .to_string()
            .contains("tsi"));
        assert!(CoreError::UnknownAmHandler {
            name: "chase".into()
        }
        .to_string()
        .contains("chase"));
    }
}
