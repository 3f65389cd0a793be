//! The dense `f32` tensor.

use crate::shape::Shape;
use rand::distributions::Distribution;
use rand::Rng;

/// A dense, row-major `f32` tensor of rank 1..=4.
///
/// All training math in the reproduction runs on `f32` (the paper's default
/// datatype); bfloat16 experiments quantize through
/// [`Bf16`](crate::Bf16) with [`Tensor::quantize_bf16`].
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// An all-zero tensor.
    #[must_use]
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.len()];
        Tensor { shape, data }
    }

    /// A tensor filled with `value`.
    #[must_use]
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// Builds a tensor by mapping the flat element index.
    #[must_use]
    pub fn from_fn(dims: &[usize], f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(f).collect();
        Tensor { shape, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    #[must_use]
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            data.len(),
            "buffer does not match shape {shape}"
        );
        Tensor { shape, data }
    }

    /// Samples i.i.d. values from `dist` — e.g. He/Kaiming initialisation.
    #[must_use]
    pub fn random<D, R>(dims: &[usize], dist: D, rng: &mut R) -> Self
    where
        D: Distribution<f32>,
        R: Rng + ?Sized,
    {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(|_| dist.sample(rng)).collect();
        Tensor { shape, data }
    }

    /// The shape's dimensions.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The shape object.
    #[must_use]
    pub fn shape_ref(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true; zero dims rejected).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat buffer.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional coordinate.
    #[must_use]
    pub fn at(&self, coords: &[usize]) -> f32 {
        self.data[self.shape.index(coords)]
    }

    /// Mutable element at a multi-dimensional coordinate.
    pub fn at_mut(&mut self, coords: &[usize]) -> &mut f32 {
        let idx = self.shape.index(coords);
        &mut self.data[idx]
    }

    /// Reinterprets the buffer under a new shape of equal volume.
    ///
    /// # Panics
    ///
    /// Panics if the volumes differ.
    #[must_use]
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(shape.len(), self.data.len(), "reshape must preserve volume");
        self.shape = shape;
        self
    }

    /// Element-wise map into a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise `self + other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[must_use]
    pub fn add(&self, other: &Tensor) -> Self {
        assert_eq!(self.shape, other.shape, "add requires equal shapes");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled requires equal shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Fraction of elements that are exactly zero — the quantity TensorDash
    /// exploits.
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|v| **v == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// Number of non-zero elements.
    #[must_use]
    pub fn nonzeros(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Quantizes every element through bfloat16 (round-to-nearest-even) and
    /// back, as the paper's bf16 training configuration would see it.
    #[must_use]
    pub fn quantize_bf16(&self) -> Self {
        self.map(|v| crate::bf16::Bf16::from_f32(v).to_f32())
    }

    /// Frobenius norm.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum::<f64>()
            .sqrt()
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tensor{} ({} elements, {:.1}% sparse)",
            self.shape,
            self.len(),
            self.sparsity() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert_eq!(z.sparsity(), 1.0);
        let f = Tensor::full(&[2, 3], 2.5);
        assert_eq!(f.sparsity(), 0.0);
        assert_eq!(f.at(&[1, 2]), 2.5);
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let t = Tensor::from_fn(&[2, 3], |i| i as f32);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[0, 2]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    fn at_mut_writes_through() {
        let mut t = Tensor::zeros(&[2, 2]);
        *t.at_mut(&[1, 1]) = 9.0;
        assert_eq!(t.data()[3], 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 6], |i| i as f32).reshape(&[3, 4]);
        assert_eq!(t.shape(), &[3, 4]);
        assert_eq!(t.at(&[2, 3]), 11.0);
    }

    #[test]
    #[should_panic(expected = "preserve volume")]
    fn reshape_rejects_volume_change() {
        let _ = Tensor::zeros(&[2, 3]).reshape(&[7]);
    }

    #[test]
    fn sparsity_counts_exact_zeros() {
        let t = Tensor::from_vec(&[4], vec![0.0, 1.0, -0.0, 2.0]);
        assert_eq!(t.sparsity(), 0.5);
        assert_eq!(t.nonzeros(), 2);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::full(&[3], 1.0);
        let b = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        a.add_scaled(&b, -0.5);
        assert_eq!(a.data(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn random_is_reproducible() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let d = rand::distributions::Uniform::new(-1.0f32, 1.0);
        let a = Tensor::random(&[10], d, &mut r1);
        let b = Tensor::random(&[10], d, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn bf16_quantization_truncates_mantissa() {
        let t = Tensor::from_vec(&[2], vec![1.0, 1.0 + 1.0 / 1024.0]);
        let q = t.quantize_bf16();
        assert_eq!(q.data()[0], 1.0);
        // bf16 has 7 mantissa bits: 1 + 2^-10 rounds to 1.0.
        assert_eq!(q.data()[1], 1.0);
    }
}
