//! The write-through store buffer.
//!
//! The platform's L1 data caches are write-through: every store becomes a
//! bus transaction to the L2. A small FIFO store buffer decouples the
//! pipeline from the bus — the core keeps executing while buffered stores
//! drain in order, and only stalls when the buffer is full or when a
//! blocking access must wait for older stores (total store order).

use cba_mem::BusTransaction;
use std::collections::VecDeque;

/// A bounded FIFO of outgoing store transactions.
///
/// # Example
///
/// ```
/// use cba_cpu::StoreBuffer;
/// use cba_mem::BusTransaction;
/// use cba_bus::RequestKind;
///
/// let mut sb = StoreBuffer::new(2);
/// let tx = BusTransaction { duration: 6, kind: RequestKind::L2Write };
/// assert!(sb.push(tx));
/// assert!(sb.push(tx));
/// assert!(!sb.push(tx), "full");
/// assert_eq!(sb.front().unwrap().duration, 6);
/// sb.pop();
/// assert!(sb.push(tx));
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    entries: VecDeque<BusTransaction>,
    capacity: usize,
}

impl StoreBuffer {
    /// Creates a buffer holding up to `capacity` stores.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a write-through L1 without any buffering
    /// is modeled by blocking stores in the core instead).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store buffer capacity must be positive");
        StoreBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Whether the buffer is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the buffer is full.
    fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Enqueues a store; returns `false` if full.
    pub fn push(&mut self, tx: BusTransaction) -> bool {
        if self.is_full() {
            return false;
        }
        self.entries.push_back(tx);
        true
    }

    /// The oldest store awaiting drain.
    pub fn front(&self) -> Option<&BusTransaction> {
        self.entries.front()
    }

    /// Removes the oldest store (after its bus transaction completed).
    pub fn pop(&mut self) -> Option<BusTransaction> {
        self.entries.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cba_bus::RequestKind;

    fn tx(d: u32) -> BusTransaction {
        BusTransaction {
            duration: d,
            kind: RequestKind::L2Write,
        }
    }

    #[test]
    fn fifo_order() {
        let mut sb = StoreBuffer::new(4);
        sb.push(tx(1));
        sb.push(tx(2));
        sb.push(tx(3));
        assert_eq!(sb.pop().unwrap().duration, 1);
        assert_eq!(sb.pop().unwrap().duration, 2);
        assert_eq!(sb.front().unwrap().duration, 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = StoreBuffer::new(0);
    }
}
