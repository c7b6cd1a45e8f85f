//! Memory access descriptors emitted by core models and workloads.

use std::fmt;

/// What a memory access does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Load,
    /// Data store (write-through L1 forwards it to L2 over the bus).
    Store,
    /// Atomic read-modify-write (e.g. `ldstub`/`casa` on SparcV8). Bypasses
    /// the caches and performs two memory accesses under one unsplittable
    /// bus transaction — the paper's canonical "very long request".
    Atomic,
    /// Instruction fetch (L1I).
    IFetch,
}

/// One memory access: a byte address plus its kind.
///
/// # Example
///
/// ```
/// use cba_mem::{AccessKind, MemAccess};
///
/// let a = MemAccess::load(0x2000);
/// assert_eq!(a.kind(), AccessKind::Load);
/// assert_eq!(a.addr(), 0x2000);
/// assert!(!MemAccess::store(0x2000).is_read());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    addr: u64,
    kind: AccessKind,
}

impl MemAccess {
    /// Creates an access of the given kind.
    pub(crate) fn new(addr: u64, kind: AccessKind) -> Self {
        MemAccess { addr, kind }
    }

    /// A data load at `addr`.
    pub fn load(addr: u64) -> Self {
        Self::new(addr, AccessKind::Load)
    }

    /// A data store at `addr`.
    pub fn store(addr: u64) -> Self {
        Self::new(addr, AccessKind::Store)
    }

    /// An atomic read-modify-write at `addr`.
    pub fn atomic(addr: u64) -> Self {
        Self::new(addr, AccessKind::Atomic)
    }

    /// An instruction fetch at `addr`.
    pub fn ifetch(addr: u64) -> Self {
        Self::new(addr, AccessKind::IFetch)
    }

    /// The byte address.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// The access kind.
    pub fn kind(&self) -> AccessKind {
        self.kind
    }

    /// Whether the access reads data (loads and instruction fetches).
    pub fn is_read(&self) -> bool {
        matches!(self.kind, AccessKind::Load | AccessKind::IFetch)
    }
}

impl fmt::Display for MemAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            AccessKind::Load => "ld",
            AccessKind::Store => "st",
            AccessKind::Atomic => "amo",
            AccessKind::IFetch => "if",
        };
        write!(f, "{k} 0x{:x}", self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert_eq!(MemAccess::load(1).kind(), AccessKind::Load);
        assert_eq!(MemAccess::store(1).kind(), AccessKind::Store);
        assert_eq!(MemAccess::atomic(1).kind(), AccessKind::Atomic);
        assert_eq!(MemAccess::ifetch(1).kind(), AccessKind::IFetch);
    }

    #[test]
    fn read_classification() {
        assert!(MemAccess::load(0).is_read());
        assert!(MemAccess::ifetch(0).is_read());
        assert!(!MemAccess::store(0).is_read());
        assert!(!MemAccess::atomic(0).is_read());
    }

    #[test]
    fn display_formats() {
        assert_eq!(MemAccess::load(0x10).to_string(), "ld 0x10");
        assert_eq!(MemAccess::atomic(0xff).to_string(), "amo 0xff");
    }
}
