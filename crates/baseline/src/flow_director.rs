//! Exact-match flow steering (Intel Flow Director / mlx5 ntuple style).
//!
//! Unlike RSS (which hashes), the flow director matches specific header
//! fields — here, the destination UDP port that identifies a service —
//! and steers to a configured queue. Bypass stacks program one rule per
//! service socket. The table has finite capacity, and reprogramming it
//! is a slow control-plane operation (modelled in [`crate::binding`]).

use lauberhorn_sim::hash::FastMap;

/// Errors from the filter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdirError {
    /// The table is out of rule slots.
    TableFull,
    /// No rule exists for this key.
    NoRule(u16),
}

impl std::fmt::Display for FdirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FdirError::TableFull => write!(f, "flow director table full"),
            FdirError::NoRule(port) => write!(f, "no flow rule for port {port}"),
        }
    }
}

impl std::error::Error for FdirError {}

/// The exact-match steering table: destination port → queue.
#[derive(Debug, Clone)]
pub struct FlowDirector {
    rules: FastMap<u16, u32>,
    capacity: usize,
}

impl FlowDirector {
    /// Creates a table with `capacity` rule slots.
    pub fn new(capacity: usize) -> Self {
        FlowDirector {
            rules: FastMap::default(),
            capacity,
        }
    }

    /// Programs (or reprograms) a rule steering `dst_port` to `queue`.
    pub fn program(&mut self, dst_port: u16, queue: u32) -> Result<(), FdirError> {
        if !self.rules.contains_key(&dst_port) && self.rules.len() >= self.capacity {
            return Err(FdirError::TableFull);
        }
        self.rules.insert(dst_port, queue);
        Ok(())
    }

    /// Removes the rule for `dst_port`.
    pub fn remove(&mut self, dst_port: u16) -> Result<(), FdirError> {
        self.rules
            .remove(&dst_port)
            .map(|_| ())
            .ok_or(FdirError::NoRule(dst_port))
    }

    /// Steers a packet: the rule's queue, or `None` (drop) on a miss.
    pub fn steer(&self, dst_port: u16) -> Option<u32> {
        self.rules.get(&dst_port).copied()
    }

    /// Rules currently installed.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_and_steer() {
        let mut f = FlowDirector::new(4);
        f.program(8000, 2).unwrap();
        assert_eq!(f.steer(8000), Some(2));
        assert_eq!(f.steer(8001), None);
    }

    #[test]
    fn capacity_enforced_but_updates_allowed() {
        let mut f = FlowDirector::new(2);
        f.program(1, 0).unwrap();
        f.program(2, 0).unwrap();
        assert_eq!(f.program(3, 0), Err(FdirError::TableFull));
        // Updating an existing rule is fine at capacity.
        f.program(1, 5).unwrap();
        assert_eq!(f.steer(1), Some(5));
    }

    #[test]
    fn remove_frees_slot() {
        let mut f = FlowDirector::new(1);
        f.program(1, 0).unwrap();
        f.remove(1).unwrap();
        assert_eq!(f.remove(1), Err(FdirError::NoRule(1)));
        f.program(2, 1).unwrap();
        assert_eq!(f.len(), 1);
    }
}
