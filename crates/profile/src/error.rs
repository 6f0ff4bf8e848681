//! Error types for the profile data model.

use std::fmt;

/// Errors produced while encoding, decoding, or transforming profile data.
#[derive(Debug)]
pub enum ProfileError {
    /// The gmon byte stream did not start with the expected magic bytes.
    BadMagic {
        /// The bytes actually found at the start of the stream.
        found: [u8; 4],
    },
    /// The gmon byte stream declared an unsupported format version.
    UnsupportedVersion {
        /// The version number found in the stream header.
        found: u32,
    },
    /// The byte stream ended in the middle of a record.
    Truncated {
        /// Human-readable description of what was being decoded.
        context: &'static str,
    },
    /// An unknown record tag was encountered while decoding.
    UnknownTag {
        /// The tag byte found.
        tag: u8,
    },
    /// A record referenced a [`crate::FunctionId`] that is not present in
    /// the embedded function table.
    UnknownFunction {
        /// The raw id that failed to resolve.
        id: u32,
    },
    /// A delta record named a base that is not the snapshot it is read
    /// against: the stream's newest one (none for a self-contained
    /// payload, or a stream that holds no snapshot).
    WrongBase {
        /// The base sample index the delta record names.
        base: u64,
        /// The sample index of the snapshot it was read against.
        tail: Option<u64>,
    },
    /// A varint or a counter summed from a delta does not fit in a u64.
    Overflow {
        /// Human-readable description of what was being decoded.
        context: &'static str,
    },
    /// A string field was not valid UTF-8.
    InvalidUtf8 {
        /// Human-readable description of the offending field.
        context: &'static str,
    },
    /// A delta was requested between profiles where the supposedly-earlier
    /// cumulative profile exceeds the later one (cumulative profiles must be
    /// monotonically non-decreasing).
    NonMonotonicDelta {
        /// The function whose counters regressed.
        id: u32,
        /// The offending counter ("self_time" / "calls" / "child_time").
        counter: &'static str,
    },
    /// A text report could not be parsed.
    ReportParse {
        /// 1-based line number within the report.
        line: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// Underlying I/O failure while reading or writing profile artifacts.
    Io(std::io::Error),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::BadMagic { found } => {
                write!(f, "bad gmon magic: expected \"gmon\", found {found:?}")
            }
            ProfileError::UnsupportedVersion { found } => {
                write!(f, "unsupported gmon format version {found}")
            }
            ProfileError::Truncated { context } => {
                write!(f, "gmon stream truncated while decoding {context}")
            }
            ProfileError::UnknownTag { tag } => write!(f, "unknown gmon record tag {tag:#x}"),
            ProfileError::UnknownFunction { id } => {
                write!(f, "record references unknown function id {id}")
            }
            ProfileError::WrongBase { base, tail } => match tail {
                Some(tail) => write!(
                    f,
                    "delta against snapshot {base} read after snapshot {tail}"
                ),
                None => write!(f, "delta against snapshot {base} read without a base"),
            },
            ProfileError::Overflow { context } => {
                write!(f, "value overflows 64 bits while decoding {context}")
            }
            ProfileError::InvalidUtf8 { context } => {
                write!(f, "invalid UTF-8 in {context}")
            }
            ProfileError::NonMonotonicDelta { id, counter } => write!(
                f,
                "non-monotonic cumulative profile: function id {id} counter {counter} decreased"
            ),
            ProfileError::ReportParse { line, message } => {
                write!(f, "report parse error at line {line}: {message}")
            }
            ProfileError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProfileError {
    fn from(e: std::io::Error) -> Self {
        ProfileError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let cases: Vec<(ProfileError, &str)> = vec![
            (ProfileError::BadMagic { found: *b"abcd" }, "bad gmon magic"),
            (ProfileError::UnsupportedVersion { found: 99 }, "version 99"),
            (
                ProfileError::Truncated {
                    context: "arc record",
                },
                "arc record",
            ),
            (ProfileError::UnknownTag { tag: 0xAB }, "0xab"),
            (ProfileError::UnknownFunction { id: 7 }, "id 7"),
            (
                ProfileError::WrongBase {
                    base: 4,
                    tail: Some(6),
                },
                "snapshot 4 read after snapshot 6",
            ),
            (
                ProfileError::WrongBase {
                    base: 4,
                    tail: None,
                },
                "without a base",
            ),
            (
                ProfileError::Overflow {
                    context: "delta row",
                },
                "delta row",
            ),
            (
                ProfileError::NonMonotonicDelta {
                    id: 3,
                    counter: "calls",
                },
                "calls",
            ),
            (
                ProfileError::ReportParse {
                    line: 12,
                    message: "oops".into(),
                },
                "line 12",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn io_error_preserves_source() {
        let io = std::io::Error::other("disk on fire");
        let err: ProfileError = io.into();
        assert!(err.to_string().contains("disk on fire"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
