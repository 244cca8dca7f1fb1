//! Typed identifiers for clock phases and synchronizers.

use std::fmt;

/// Identifies a clock phase `φ_i`.
///
/// Internally zero-based; the paper's one-based numbering is available
/// through [`PhaseId::number`] and [`PhaseId::from_number`], and is what
/// [`fmt::Display`] prints (`φ1`, `φ2`, …).
///
/// ```
/// use smo_circuit::PhaseId;
/// let p = PhaseId::from_number(3);
/// assert_eq!(p.index(), 2);
/// assert_eq!(p.to_string(), "φ3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhaseId(usize);

impl PhaseId {
    /// Creates a phase id from a zero-based index.
    pub fn new(index: usize) -> Self {
        PhaseId(index)
    }

    /// Creates a phase id from the paper's one-based phase number.
    ///
    /// # Panics
    ///
    /// Panics if `number` is zero.
    pub fn from_number(number: usize) -> Self {
        assert!(number >= 1, "phase numbers are one-based");
        PhaseId(number - 1)
    }

    /// Zero-based index.
    pub fn index(self) -> usize {
        self.0
    }

    /// One-based phase number as used in the paper (`φ1` has number 1).
    pub fn number(self) -> usize {
        self.0 + 1
    }
}

impl fmt::Display for PhaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "φ{}", self.number())
    }
}

/// Identifies a synchronizer (latch or flip-flop) within a
/// [`Circuit`](crate::Circuit).
///
/// The paper calls all synchronizers "latches" and numbers them 1…l; we keep
/// the name and the one-based display convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LatchId(usize);

impl LatchId {
    /// Creates a latch id from a zero-based index.
    pub fn new(index: usize) -> Self {
        LatchId(index)
    }

    /// Zero-based index.
    pub fn index(self) -> usize {
        self.0
    }

    /// One-based number as used in the paper (latch 1 has number 1).
    pub fn number(self) -> usize {
        self.0 + 1
    }
}

impl fmt::Display for LatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.number())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_numbering_round_trips() {
        for n in 1..=4 {
            let p = PhaseId::from_number(n);
            assert_eq!(p.number(), n);
            assert_eq!(PhaseId::new(p.index()), p);
        }
    }

    #[test]
    #[should_panic(expected = "one-based")]
    fn phase_number_zero_panics() {
        let _ = PhaseId::from_number(0);
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(PhaseId::new(0).to_string(), "φ1");
        assert_eq!(LatchId::new(3).to_string(), "L4");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(PhaseId::new(0) < PhaseId::new(1));
        assert!(LatchId::new(2) > LatchId::new(1));
    }
}
