//! Dense row-major `f32` matrix with the handful of BLAS-like kernels the
//! training substrate needs.
//!
//! This is deliberately small: the TrueNorth workloads are batches of at most
//! a few hundred rows against 256-column crossbar blocks. Every product's
//! inner loop is a row update `out[j] += a·b[j]`, which LLVM vectorizes,
//! and skips an exact-zero `a` (digit frames are mostly zeros). No
//! external linear-algebra crate is used.
//!
//! Training must give the same bits on every build, so no kernel reorders a
//! sum: each output accumulates its products in `k` order from +0.0, and
//! Rust never contracts `a * b + c` into an FMA. Skipping `a == 0.0` is
//! exact for finite operands, since such an accumulator never becomes −0.0.
//! The Tea layer's fused kernels in [`crate::layer`] follow the same rule.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use tn_learn::matrix::Matrix;
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 2);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from an owned row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix product `self · rhs`.
    ///
    /// Uses the cache-friendly `ikj` loop order with an accumulation row.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product `self · rhsᵀ`.
    ///
    /// Runs [`Matrix::matmul`]'s `ikj` loop over the transposed `rhs`, so
    /// the inner loop is a vectorizable row update rather than a serial dot
    /// product. Each output still sums `self[i][k]·rhs[j][k]` in `k` order
    /// from +0.0, so the result is bit-identical to the dot-product form.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_transpose_rhs(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transpose_rhs shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.matmul(&rhs.transpose())
    }

    /// Matrix product `selfᵀ · rhs` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn matmul_transpose_lhs(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_transpose_lhs shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let arow = self.row(k);
            let brow = rhs.row(k);
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise map in place.
    pub fn map_in_place<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise addition `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// Scaled element-wise addition `self += alpha * rhs` (axpy).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiply every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Element-wise (Hadamard) product into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| a * b)
                .collect(),
        }
    }

    /// Fill with zeros, preserving shape.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Clamp every element into `[lo, hi]`.
    pub fn clamp_in_place(&mut self, lo: f32, hi: f32) {
        for x in &mut self.data {
            *x = x.clamp(lo, hi);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows <= 8 && self.cols <= 8 {
            writeln!(f)?;
            for r in 0..self.rows {
                writeln!(f, "  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut id = Matrix::zeros(3, 3);
        for i in 0..3 {
            id[(i, i)] = 1.0;
        }
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_transpose_rhs_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.5, -1.0, 2.0]]);
        let b = Matrix::from_rows(&[
            &[1.0, 0.0, 2.0],
            &[3.0, 1.0, -1.0],
            &[0.0, 4.0, 1.0],
            &[2.0, 2.0, 2.0],
        ]);
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_transpose_rhs(&b);
        assert_eq!(via_t, direct);
    }

    #[test]
    fn matmul_transpose_lhs_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, -1.0], &[0.0, 2.0], &[3.0, 1.0]]);
        let via_t = a.transpose().matmul(&b);
        let direct = a.matmul_transpose_lhs(&b);
        assert_eq!(via_t, direct);
    }

    #[test]
    fn transpose_twice_roundtrips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn row_accessors_match_indexing() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a[(0, 1)], 2.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0; 4]);
        a.scale(3.0);
        assert_eq!(a.as_slice(), &[6.0; 4]);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.5], &[1.0, -1.0]]);
        assert_eq!(a.hadamard(&b).as_slice(), &[2.0, 1.0, 3.0, -4.0]);
    }

    #[test]
    fn clamp_in_place_bounds_values() {
        let mut a = Matrix::from_rows(&[&[-2.0, 0.3], &[1.7, 0.9]]);
        a.clamp_in_place(-1.0, 1.0);
        assert_eq!(a.as_slice(), &[-1.0, 0.3, 1.0, 0.9]);
    }

    #[test]
    fn norms_and_sums() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn serde_roundtrip() {
        let a = Matrix::from_rows(&[&[1.5, -2.0], &[0.0, 3.25]]);
        let json = serde_json_lite(&a);
        assert!(json.contains("1.5"));
    }

    // serde is exercised with the derive only; a tiny smoke formatting helper
    // keeps this test free of external serde_json.
    fn serde_json_lite(m: &Matrix) -> String {
        format!("{:?} {:?}", m.shape(), m.as_slice())
    }
}

/// Naive references and edge-heavy inputs for the bit-exactness proptests
/// of the matmul kernels here and the fused Tea kernels in
/// [`crate::layer`].
#[cfg(test)]
pub(crate) mod reference {
    use super::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A `rows × cols` matrix mixing exact ±0.0, ±1.0 and arbitrary
    /// values in `[-2, 2)`.
    pub(crate) fn edge_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| match rng.gen_range(0u32..8) {
                0 => 0.0,
                1 => -0.0,
                2 => 1.0,
                3 => -1.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// `a · b` as a textbook triple loop: every output sums all `k` terms
    /// in order from +0.0, zero factors included.
    pub(crate) fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows());
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0_f32;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// `a · bᵀ` as serial dot products over `k`.
    pub(crate) fn matmul_transpose_rhs(a: &Matrix, b: &Matrix) -> Matrix {
        matmul(a, &b.transpose())
    }

    /// `aᵀ · b` as serial sums over the shared row index.
    pub(crate) fn matmul_transpose_lhs(a: &Matrix, b: &Matrix) -> Matrix {
        matmul(&a.transpose(), b)
    }

    /// The bit patterns of every element, for exact comparisons that
    /// tell +0.0 from −0.0.
    pub(crate) fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }
}

#[cfg(test)]
mod proptests {
    use super::reference::{self, bits, edge_matrix};
    use super::*;
    use proptest::prelude::*;

    fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
        (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
            proptest::collection::vec(-10.0f32..10.0, r * c)
                .prop_map(move |data| Matrix::from_vec(r, c, data))
        })
    }

    proptest! {
        /// (A·B)ᵀ = Bᵀ·Aᵀ — ties all three matmul kernels together.
        #[test]
        fn transpose_of_product(
            a in arb_matrix(6),
            b_data in proptest::collection::vec(-10.0f32..10.0, 36),
        ) {
            let b = Matrix::from_vec(a.cols(), 6.min(b_data.len() / a.cols().max(1)).max(1), {
                let cols = 6.min(b_data.len() / a.cols().max(1)).max(1);
                b_data[..a.cols() * cols].to_vec()
            });
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            prop_assert_eq!(lhs.shape(), rhs.shape());
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        /// matmul_transpose_lhs/rhs agree with explicit transposes.
        #[test]
        fn fused_transpose_kernels_agree(a in arb_matrix(5), b in arb_matrix(5)) {
            if a.cols() == b.cols() {
                let direct = a.matmul_transpose_rhs(&b);
                let explicit = a.matmul(&b.transpose());
                for (x, y) in direct.as_slice().iter().zip(explicit.as_slice()) {
                    prop_assert!((x - y).abs() < 1e-3);
                }
            }
            if a.rows() == b.rows() {
                let direct = a.matmul_transpose_lhs(&b);
                let explicit = a.transpose().matmul(&b);
                for (x, y) in direct.as_slice().iter().zip(explicit.as_slice()) {
                    prop_assert!((x - y).abs() < 1e-3);
                }
            }
        }

        /// The vectorized kernels give exactly the naive loops' bits,
        /// zeros and signs included, at shapes that are not multiples of
        /// any SIMD width.
        #[test]
        fn matmul_kernels_match_naive_bits(
            rows in 1usize..=37,
            inner in 1usize..=37,
            cols in 1usize..=37,
            seed in 0u64..u64::MAX,
        ) {
            let a = edge_matrix(rows, inner, seed);
            let b = edge_matrix(inner, cols, seed ^ 1);
            let bt = edge_matrix(cols, inner, seed ^ 2);
            let c = edge_matrix(rows, cols, seed ^ 3);
            prop_assert_eq!(bits(&a.matmul(&b)), bits(&reference::matmul(&a, &b)));
            prop_assert_eq!(
                bits(&a.matmul_transpose_rhs(&bt)),
                bits(&reference::matmul_transpose_rhs(&a, &bt))
            );
            prop_assert_eq!(
                bits(&a.matmul_transpose_lhs(&c)),
                bits(&reference::matmul_transpose_lhs(&a, &c))
            );
        }

        /// Hadamard is commutative; axpy is linear.
        #[test]
        fn elementwise_algebra(a in arb_matrix(5)) {
            let b = a.map(|x| x * 0.5 + 1.0);
            prop_assert_eq!(a.hadamard(&b), b.hadamard(&a));
            let mut c = a.clone();
            c.axpy(2.0, &b);
            for ((x, &ai), &bi) in c.as_slice().iter().zip(a.as_slice()).zip(b.as_slice()) {
                prop_assert!((x - (ai + 2.0 * bi)).abs() < 1e-4);
            }
        }

        /// clamp_in_place bounds every element and is idempotent.
        #[test]
        fn clamp_bounds_and_idempotent(a in arb_matrix(5)) {
            let mut c = a.clone();
            c.clamp_in_place(-1.0, 1.0);
            prop_assert!(c.as_slice().iter().all(|&x| (-1.0..=1.0).contains(&x)));
            let again = {
                let mut d = c.clone();
                d.clamp_in_place(-1.0, 1.0);
                d
            };
            prop_assert_eq!(c, again);
        }
    }
}
