//! Error types for compilation and execution.

use std::fmt;

/// Errors produced by the JIT compiler, the AOT path, and the execution
/// engine.
#[derive(Debug, Clone, PartialEq)]
pub enum JitError {
    /// The input IR failed verification or could not be compiled.
    Compile(String),
    /// A referenced symbol could not be resolved at link/JIT time.
    UnresolvedSymbol {
        /// The missing symbol.
        symbol: String,
    },
    /// A shared-library dependency is not available on the target.
    MissingDependency {
        /// The missing library name.
        library: String,
    },
    /// The execution engine trapped (division by zero, explicit trap,
    /// out-of-bounds memory access, …).
    Trap {
        /// Human-readable trap description.
        reason: String,
    },
    /// Execution exceeded its fuel budget (runaway ifunc protection).
    OutOfFuel {
        /// Instructions retired before the engine stopped, a vector loop or
        /// library call that ran out of fuel among them.
        executed: u64,
    },
    /// The requested function does not exist in the compiled module.
    UnknownFunction {
        /// Function name.
        name: String,
    },
    /// Machine-code (de)serialization failed.
    Decode(String),
    /// An error bubbled up from an external host call (framework or dylib).
    Host(String),
    /// A framework call asked to send more bytes than the message it would
    /// build can carry; refused before anything is read or allocated.
    TooLarge {
        /// The call (`tc_put`, `tc_forward_self`), or `memory growth`.
        what: String,
        /// The length the call asked for.
        len: u64,
        /// The most it accepts.
        max: u64,
    },
}

impl fmt::Display for JitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JitError::Compile(msg) => write!(f, "compilation failed: {msg}"),
            JitError::UnresolvedSymbol { symbol } => {
                write!(f, "unresolved symbol `{symbol}`")
            }
            JitError::MissingDependency { library } => {
                write!(f, "missing shared-library dependency `{library}`")
            }
            JitError::Trap { reason } => write!(f, "execution trapped: {reason}"),
            JitError::OutOfFuel { executed: n } => {
                write!(f, "execution exceeded fuel budget after {n} instructions")
            }
            JitError::UnknownFunction { name } => write!(f, "unknown function `{name}`"),
            JitError::Decode(msg) => write!(f, "machine code decode failed: {msg}"),
            JitError::Host(msg) => write!(f, "external host call failed: {msg}"),
            JitError::TooLarge { what, len, max } => {
                write!(f, "{what} of {len} bytes exceeds its limit of {max}")
            }
        }
    }
}

impl std::error::Error for JitError {}

impl From<tc_bitir::BitirError> for JitError {
    fn from(e: tc_bitir::BitirError) -> Self {
        JitError::Compile(e.to_string())
    }
}

impl From<tc_binfmt::BinfmtError> for JitError {
    fn from(e: tc_binfmt::BinfmtError) -> Self {
        match e {
            tc_binfmt::BinfmtError::UndefinedSymbol { symbol } => {
                JitError::UnresolvedSymbol { symbol }
            }
            other => JitError::Compile(other.to_string()),
        }
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, JitError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(JitError::UnresolvedSymbol {
            symbol: "foo".into()
        }
        .to_string()
        .contains("foo"));
        assert!(JitError::OutOfFuel { executed: 7 }
            .to_string()
            .contains('7'));
        assert!(JitError::MissingDependency {
            library: "libomp.so".into()
        }
        .to_string()
        .contains("libomp.so"));
    }

    #[test]
    fn binfmt_undefined_symbol_maps_to_unresolved() {
        let e: JitError = tc_binfmt::BinfmtError::UndefinedSymbol { symbol: "x".into() }.into();
        assert_eq!(e, JitError::UnresolvedSymbol { symbol: "x".into() });
    }
}
