//! Small dense boolean matrix used for the paper's `C` and `K` matrices.

use std::fmt;

/// A dense `k × k` boolean matrix.
///
/// Used for the phase-ordering matrix `C` (eq. 1) and the input/output
/// phase-pair matrix `K` (eq. 2). Displays in the paper's bracketed 0/1
/// layout:
///
/// ```
/// use smo_circuit::BoolMatrix;
/// let mut m = BoolMatrix::new(2);
/// m.set(0, 1, true);
/// assert_eq!(m.to_string(), "[ 0 1 ]\n[ 0 0 ]\n");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BoolMatrix {
    dim: usize,
    data: Vec<bool>,
}

impl BoolMatrix {
    /// Creates an all-false `dim × dim` matrix.
    pub fn new(dim: usize) -> Self {
        BoolMatrix {
            dim,
            data: vec![false; dim * dim],
        }
    }

    /// Matrix dimension `k`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Element at zero-based `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.dim && col < self.dim, "index out of range");
        self.data[row * self.dim + col]
    }

    /// Sets the element at zero-based `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.dim && col < self.dim, "index out of range");
        self.data[row * self.dim + col] = value;
    }

    /// Number of `true` entries.
    pub fn count_ones(&self) -> usize {
        self.data.iter().filter(|&&b| b).count()
    }

    /// Iterates over the `(row, col)` coordinates of `true` entries in
    /// row-major order.
    pub fn ones(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.data
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(move |(i, _)| (i / self.dim, i % self.dim))
    }
}

impl fmt::Display for BoolMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.dim {
            write!(f, "[")?;
            for c in 0..self.dim {
                write!(f, " {}", u8::from(self.get(r, c)))?;
            }
            writeln!(f, " ]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut m = BoolMatrix::new(3);
        m.set(1, 2, true);
        m.set(2, 0, true);
        assert!(m.get(1, 2));
        assert!(m.get(2, 0));
        assert!(!m.get(0, 0));
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn ones_iterates_row_major() {
        let mut m = BoolMatrix::new(2);
        m.set(0, 1, true);
        m.set(1, 0, true);
        let coords: Vec<_> = m.ones().collect();
        assert_eq!(coords, vec![(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let m = BoolMatrix::new(2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn display_matches_paper_layout() {
        // The appendix K matrix for Fig. 1.
        let mut k = BoolMatrix::new(4);
        for (i, j) in [
            (0, 2),
            (0, 3),
            (1, 0),
            (1, 2),
            (1, 3),
            (2, 0),
            (2, 1),
            (3, 1),
            (3, 2),
        ] {
            k.set(i, j, true);
        }
        let s = k.to_string();
        assert_eq!(s, "[ 0 0 1 1 ]\n[ 1 0 1 1 ]\n[ 1 1 0 0 ]\n[ 0 1 1 0 ]\n");
    }
}
