//! The program abstraction: a stream of compute and memory operations.

use cba_mem::MemAccess;
use sim_core::rng::SimRng;

/// One operation of a program's dynamic instruction stream, as seen by the
/// memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n >= 1` cycles of pipeline work with no memory traffic.
    Compute(u32),
    /// One memory access (classified by the core's cache hierarchy).
    Access(MemAccess),
}

/// A program: a (possibly randomized) generator of [`Op`]s.
///
/// Programs are driven pull-style by a [`Core`](crate::Core); they may use
/// the per-run RNG stream for randomized address patterns. A program
/// serves one run: the Monte-Carlo campaigns build a new program for
/// every run.
pub trait Program: std::fmt::Debug {
    /// Stable benchmark name (reports and plots key on it).
    fn name(&self) -> &str;

    /// The next operation, or `None` when the program completes.
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op>;
}

/// A fixed, scripted operation sequence — the simplest [`Program`].
///
/// Used heavily in tests and as the building block for trace-driven
/// experiments.
///
/// # Example
///
/// ```
/// use cba_cpu::{Op, Program, ScriptProgram};
/// use cba_mem::MemAccess;
/// use sim_core::rng::SimRng;
///
/// let mut p = ScriptProgram::new("two-ops", vec![
///     Op::Compute(3),
///     Op::Access(MemAccess::load(0x80)),
/// ]);
/// let mut rng = SimRng::seed_from(0);
/// assert_eq!(p.next_op(&mut rng), Some(Op::Compute(3)));
/// assert!(matches!(p.next_op(&mut rng), Some(Op::Access(_))));
/// assert_eq!(p.next_op(&mut rng), None);
/// ```
#[derive(Debug, Clone)]
pub struct ScriptProgram {
    name: String,
    ops: Vec<Op>,
    pos: usize,
}

impl ScriptProgram {
    /// Creates a scripted program.
    ///
    /// # Panics
    ///
    /// Panics if any `Op::Compute` has a zero cycle count (a zero-cycle
    /// operation cannot be scheduled).
    pub fn new(name: impl Into<String>, ops: Vec<Op>) -> Self {
        assert!(
            ops.iter().all(|op| !matches!(op, Op::Compute(0))),
            "Compute(0) is not a schedulable operation"
        );
        ScriptProgram {
            name: name.into(),
            ops,
            pos: 0,
        }
    }
}

impl Program for ScriptProgram {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_op(&mut self, _rng: &mut SimRng) -> Option<Op> {
        let op = self.ops.get(self.pos).copied();
        if op.is_some() {
            self.pos += 1;
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_yields_in_order() {
        let ops = vec![
            Op::Compute(1),
            Op::Access(MemAccess::store(0x10)),
            Op::Compute(2),
        ];
        let mut p = ScriptProgram::new("s", ops.clone());
        let mut rng = SimRng::seed_from(0);
        for expect in &ops {
            assert_eq!(p.next_op(&mut rng).as_ref(), Some(expect));
        }
        assert_eq!(p.next_op(&mut rng), None);
        assert_eq!(p.next_op(&mut rng), None, "stays exhausted");
    }

    #[test]
    #[should_panic(expected = "Compute(0)")]
    fn zero_compute_rejected() {
        let _ = ScriptProgram::new("bad", vec![Op::Compute(0)]);
    }

    #[test]
    fn empty_script_finishes_immediately() {
        let mut p = ScriptProgram::new("empty", vec![]);
        let mut rng = SimRng::seed_from(0);
        assert_eq!(p.next_op(&mut rng), None);
    }
}
