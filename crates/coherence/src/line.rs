//! Cache-line addressing and per-cache MESI states.

/// Identifier of a caching agent: a core's private cache or the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheId(pub usize);

/// A line-aligned physical address.
///
/// Stored as the raw byte address; [`LineAddr::new`] enforces alignment
/// to the owning system's line size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Creates a line address, asserting alignment to `line_size`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not `line_size`-aligned (a construction bug
    /// in the caller, never data-dependent).
    pub fn new(addr: u64, line_size: usize) -> Self {
        // lint:allow(panic-path): construction bug in the caller, documented above
        assert!(
            addr.is_multiple_of(line_size as u64),
            "address {addr:#x} not aligned to {line_size}"
        );
        LineAddr(addr)
    }

    /// The line containing byte address `addr`.
    pub fn containing(addr: u64, line_size: usize) -> Self {
        LineAddr(addr - addr % line_size as u64)
    }

    /// The `n`-th line after this one.
    pub fn offset(self, n: u64, line_size: usize) -> Self {
        LineAddr(self.0 + n * line_size as u64)
    }
}

/// Largest cache line any modelled fabric carries (ECI's 128 B).
pub const MAX_LINE_SIZE: usize = 128;

/// The contents of one cache line, held by value.
///
/// A fixed-size `Copy` buffer of up to [`MAX_LINE_SIZE`] bytes, so a
/// line's payload (a dispatch line, an AUX line, a collected response)
/// moves between the NIC model and the coherence fabric without a
/// heap allocation. Dereferences to its `len()` valid bytes; the bytes
/// past `len()` are always zero, so equality is plain byte equality.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LineData {
    bytes: [u8; MAX_LINE_SIZE],
    len: u8,
}

impl LineData {
    /// An all-zero line of `len` bytes (clamped to [`MAX_LINE_SIZE`]).
    pub fn zeroed(len: usize) -> Self {
        debug_assert!(len <= MAX_LINE_SIZE, "{len}-byte line exceeds the maximum");
        LineData {
            bytes: [0; MAX_LINE_SIZE],
            len: len.min(MAX_LINE_SIZE) as u8,
        }
    }
}

impl std::ops::Deref for LineData {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes.get(..self.len as usize).unwrap_or(&[])
    }
}

impl std::ops::DerefMut for LineData {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.bytes.get_mut(..self.len as usize).unwrap_or(&mut [])
    }
}

impl std::fmt::Debug for LineData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// MESI state of a line in one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LineState {
    /// Not present.
    #[default]
    Invalid,
    /// Present, read-only, possibly also in other caches.
    Shared,
    /// Present, read-write, clean, exclusive to this cache.
    Exclusive,
    /// Present, read-write, dirty, exclusive to this cache.
    Modified,
}

impl LineState {
    /// Whether a load hits in this state.
    pub fn readable(self) -> bool {
        self != LineState::Invalid
    }

    /// Whether a store hits (no upgrade needed) in this state.
    pub fn writable(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_data_is_its_first_len_bytes() {
        let mut line = LineData::zeroed(64);
        assert_eq!(line.len(), 64);
        line[..3].copy_from_slice(b"abc");
        assert_eq!(&line[..4], b"abc\0");
        // Bytes past the length stay zero, so equal contents compare
        // equal however the lines were written.
        let mut other = LineData::zeroed(64);
        other[..4].copy_from_slice(b"abc\0");
        assert_eq!(line, other);
        assert_ne!(line, LineData::zeroed(64));
        assert_eq!(LineData::zeroed(MAX_LINE_SIZE).len(), MAX_LINE_SIZE);
        assert!(LineData::zeroed(0).is_empty());
    }

    #[test]
    fn alignment_enforced() {
        let _ = LineAddr::new(0x1000, 128);
        let r = std::panic::catch_unwind(|| LineAddr::new(0x1001, 128));
        assert!(r.is_err());
    }

    #[test]
    fn containing_rounds_down() {
        assert_eq!(LineAddr::containing(0x10f, 128), LineAddr(0x100));
        assert_eq!(LineAddr::containing(0x80, 128), LineAddr(0x80));
        assert_eq!(LineAddr::containing(0, 64), LineAddr(0));
    }

    #[test]
    fn offset_steps_by_lines() {
        let a = LineAddr::new(0x1000, 64);
        assert_eq!(a.offset(2, 64), LineAddr(0x1080));
    }

    #[test]
    fn state_predicates() {
        assert!(!LineState::Invalid.readable());
        assert!(LineState::Shared.readable());
        assert!(!LineState::Shared.writable());
        assert!(LineState::Exclusive.writable());
        assert!(LineState::Modified.writable());
    }
}
