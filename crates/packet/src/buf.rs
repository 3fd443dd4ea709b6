//! Reference-counted packet buffers.
//!
//! Every simulated frame used to be a bare `Vec<u8>` that was cloned
//! at each hop: the client driver kept one copy for retransmission,
//! the stack's event queue carried another, and fault duplication
//! cloned again. [`PktBuf`] makes a frame a cheap handle — cloning
//! bumps a reference count instead of copying bytes — so a frame
//! built once by the marshaller flows unchanged through the NIC
//! pipeline, the coherence fabric, and the RPC stacks.
//!
//! Mutation (fault-injected corruption is the only in-tree case) goes
//! through [`PktBuf::make_mut`], which is copy-on-write: the clean
//! path never copies, and a corrupted retransmission never disturbs
//! the pristine copy held for later retries.
//!
//! `Arc` (not `Rc`) so stacks owning buffers can move across the
//! parallel sweep's worker threads.

use std::ops::Deref;
use std::sync::Arc;

/// A reference-counted, immutable-by-default packet buffer.
#[derive(Debug, Clone, Default)]
pub struct PktBuf(Arc<Vec<u8>>);

impl PktBuf {
    /// Wraps an existing byte vector without copying it.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        PktBuf(Arc::new(bytes))
    }

    /// The frame length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the frame is empty (the degenerate error frame).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The frame bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Mutable access, copy-on-write: sole owners mutate in place,
    /// shared buffers are cloned first so other holders are unharmed.
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        Arc::make_mut(&mut self.0)
    }

    /// How many handles share this buffer (diagnostics/tests).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl Deref for PktBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for PktBuf {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for PktBuf {
    fn from(bytes: Vec<u8>) -> Self {
        PktBuf::from_vec(bytes)
    }
}

impl PartialEq for PktBuf {
    fn eq(&self, other: &Self) -> bool {
        self.0.as_slice() == other.0.as_slice()
    }
}

impl Eq for PktBuf {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a = PktBuf::from_vec(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a.ref_count(), 2);
        assert_eq!(b.as_slice(), &[1, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn make_mut_is_copy_on_write() {
        let mut a = PktBuf::from_vec(vec![1, 2, 3]);
        let b = a.clone();
        if let Some(x) = a.make_mut().get_mut(0) {
            *x = 9;
        }
        assert_eq!(a.as_slice(), &[9, 2, 3]);
        // The shared copy is untouched.
        assert_eq!(b.as_slice(), &[1, 2, 3]);
        assert_eq!(b.ref_count(), 1);
    }

    #[test]
    fn sole_owner_mutates_in_place() {
        let mut a = PktBuf::from_vec(Vec::with_capacity(64));
        let cap = a.make_mut().capacity();
        a.make_mut().extend_from_slice(&[7; 10]);
        assert_eq!(a.make_mut().capacity(), cap, "no reallocation");
        assert_eq!(a.len(), 10);
    }
}
