//! Decoding error type.

use std::fmt;

/// Errors produced while decoding wire data.
///
/// Encoding is infallible (it writes into an in-memory buffer); every
/// decoding primitive returns `Result<_, WireError>` because the bytes may
/// come from an untrusted or truncated source (the paper's desktop-grid
/// nodes are "weakly controlled").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof {
        /// Bytes required by the current primitive.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// A varint used more than 10 bytes / overflowed 64 bits.
    VarintOverflow,
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
    /// An enum discriminant was out of range for the named type.
    InvalidTag {
        /// Type whose decoder rejected the tag.
        ty: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A length prefix exceeded the configured sanity limit.
    LengthOverflow {
        /// Declared length.
        len: u64,
        /// Maximum accepted.
        max: u64,
    },
    /// `Reader::expect_end` found unconsumed bytes.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A checksummed frame failed verification.
    DigestMismatch {
        /// Digest declared by the frame.
        expected: u64,
        /// Digest recomputed over the payload.
        actual: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, have } => {
                write!(f, "unexpected end of buffer: needed {needed} bytes, have {have}")
            }
            WireError::VarintOverflow => write!(f, "varint overflowed 64 bits"),
            WireError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::InvalidTag { ty, tag } => {
                write!(f, "invalid discriminant {tag} for type {ty}")
            }
            WireError::LengthOverflow { len, max } => {
                write!(f, "declared length {len} exceeds limit {max}")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after complete value")
            }
            WireError::DigestMismatch { expected, actual } => {
                write!(f, "digest mismatch: frame declares {expected:#018x}, payload hashes to {actual:#018x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = WireError::UnexpectedEof { needed: 8, have: 3 };
        assert!(e.to_string().contains("needed 8"));
        let e = WireError::InvalidTag { ty: "Msg", tag: 99 };
        assert!(e.to_string().contains("Msg"));
        assert!(e.to_string().contains("99"));
        let e = WireError::DigestMismatch { expected: 1, actual: 2 };
        assert!(e.to_string().contains("mismatch"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&WireError::VarintOverflow);
    }
}
