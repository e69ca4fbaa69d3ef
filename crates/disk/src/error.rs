//! Typed errors for the disk substrate.
//!
//! Everything that can go wrong between a page image and a join result —
//! an exhausted retry budget, a torn write, a checksum mismatch, an
//! output tuple too large for a page, a lost I/O worker — surfaces as a
//! [`PhjError`] naming the file and page involved, instead of a panic
//! backtrace. An oversized build partition is not among them: core's
//! overflow ladder always ends in a join. The CLI renders the `Display`
//! chain and exits nonzero.

use std::fmt;
use std::io;
use std::path::PathBuf;

use phj_storage::PageError;

/// Result alias for fallible disk-substrate operations.
pub type Result<T> = std::result::Result<T, PhjError>;

/// An error surfaced by the disk-oriented join engine.
#[derive(Debug)]
pub enum PhjError {
    /// An I/O operation failed after exhausting its retry budget.
    Io {
        /// File the operation targeted.
        path: PathBuf,
        /// Page id within the striped relation, when known.
        page: Option<u64>,
        /// Attempts made before giving up (1 = no retries).
        attempts: u32,
        /// The final operating-system error.
        source: io::Error,
    },
    /// A page read back from disk is structurally impossible — a torn
    /// write, a hole in the file, or a foreign page.
    TornPage {
        /// Stripe file the page was read from.
        path: PathBuf,
        /// Page id within the striped relation.
        page: u64,
        /// Slot count claimed by the corrupt header.
        nslots: u16,
        /// Data-start offset claimed by the corrupt header.
        data_start: u16,
    },
    /// A page's header checksum does not match its contents — corruption
    /// inside the slot or data area.
    ChecksumMismatch {
        /// Stripe file the page was read from.
        path: PathBuf,
        /// Page id within the striped relation.
        page: u64,
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum recomputed from the image.
        computed: u32,
    },
    /// A join-output tuple is larger than a page can hold.
    TupleTooLarge {
        /// Size of the offending tuple in bytes.
        bytes: usize,
    },
    /// A background worker disappeared without delivering a result or an
    /// error (it panicked).
    WorkerLost {
        /// Which worker (e.g. "read-ahead", "background writer").
        what: &'static str,
    },
}

impl PhjError {
    /// Attach a (file, page) location to a storage-level [`PageError`].
    pub fn from_page_error(path: PathBuf, page: u64, e: PageError) -> PhjError {
        match e {
            PageError::Torn { nslots, data_start } => {
                PhjError::TornPage { path, page, nslots, data_start }
            }
            PageError::ChecksumMismatch { stored, computed } => {
                PhjError::ChecksumMismatch { path, page, stored, computed }
            }
        }
    }

    /// Wrap a plain `io::Error` with a file (no page, single attempt).
    pub fn io(path: PathBuf, source: io::Error) -> PhjError {
        PhjError::Io { path, page: None, attempts: 1, source }
    }

    /// Whether this error came from page verification (torn/checksum) —
    /// i.e. data corruption rather than an operational failure.
    pub fn is_corruption(&self) -> bool {
        matches!(self, PhjError::TornPage { .. } | PhjError::ChecksumMismatch { .. })
    }
}

impl fmt::Display for PhjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhjError::Io { path, page, attempts, source } => {
                write!(f, "I/O error on {}", path.display())?;
                if let Some(p) = page {
                    write!(f, " page {p}")?;
                }
                write!(f, " after {attempts} attempt(s): {source}")
            }
            PhjError::TornPage { path, page, nslots, data_start } => write!(
                f,
                "torn page {page} in {}: header claims {nslots} slots, data_start {data_start}",
                path.display()
            ),
            PhjError::ChecksumMismatch { path, page, stored, computed } => write!(
                f,
                "checksum mismatch on page {page} in {}: header {stored:#010x}, contents {computed:#010x}",
                path.display()
            ),
            PhjError::TupleTooLarge { bytes } => {
                write!(f, "join output tuple of {bytes} B exceeds the page size")
            }
            PhjError::WorkerLost { what } => {
                write!(f, "{what} worker terminated without reporting a result")
            }
        }
    }
}

impl std::error::Error for PhjError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PhjError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_file_and_page() {
        let e = PhjError::ChecksumMismatch {
            path: PathBuf::from("/tmp/spill.2"),
            page: 17,
            stored: 0xDEAD_BEEF,
            computed: 0x0BAD_F00D,
        };
        let s = e.to_string();
        assert!(s.contains("/tmp/spill.2"), "{s}");
        assert!(s.contains("page 17"), "{s}");
        assert!(s.contains("0xdeadbeef"), "{s}");
        assert!(e.is_corruption());
    }

    #[test]
    fn io_chain_renders_source() {
        let e = PhjError::Io {
            path: PathBuf::from("x.0"),
            page: Some(3),
            attempts: 4,
            source: io::Error::new(io::ErrorKind::Interrupted, "injected"),
        };
        let s = e.to_string();
        assert!(s.contains("after 4 attempt(s)"), "{s}");
        assert!(s.contains("injected"), "{s}");
        assert!(std::error::Error::source(&e).is_some());
        assert!(!e.is_corruption());
    }

    #[test]
    fn page_error_maps_to_located_variant() {
        let e = PhjError::from_page_error(
            PathBuf::from("b.1"),
            9,
            PageError::Torn { nslots: 2000, data_start: 8 },
        );
        assert!(matches!(e, PhjError::TornPage { page: 9, nslots: 2000, .. }));
    }
}
