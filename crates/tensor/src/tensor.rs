use std::fmt;

use crate::{Shape, TensorError};

/// An owned, dense, row-major `f32` tensor.
///
/// This is the single numeric container used throughout the GradSec
/// reproduction: network weights, activations, gradients, images and
/// attack feature matrices are all [`Tensor`]s.
///
/// # Example
///
/// ```
/// use gradsec_tensor::Tensor;
///
/// # fn main() -> Result<(), gradsec_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.get(&[1, 0])?, 3.0);
/// let doubled = t.map(|x| x * 2.0);
/// assert_eq!(doubled.data(), &[2.0, 4.0, 6.0, 8.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` does not
    /// equal the element count implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if shape.numel() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Returns the shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Returns a read-only view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns a mutable view of the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn get(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] when element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let new_shape = Shape::new(dims);
        if new_shape.numel() != self.numel() {
            return Err(TensorError::ReshapeMismatch {
                from: self.numel(),
                to: new_shape.numel(),
            });
        }
        Ok(Tensor {
            shape: new_shape,
            data: self.data.clone(),
        })
    }

    /// Reshapes in place (no data copy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] when element counts differ.
    pub fn reshape_in_place(&mut self, dims: &[usize]) -> Result<(), TensorError> {
        let new_shape = Shape::new(dims);
        if new_shape.numel() != self.numel() {
            return Err(TensorError::ReshapeMismatch {
                from: self.numel(),
                to: new_shape.numel(),
            });
        }
        self.shape = new_shape;
        Ok(())
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two equally-shaped tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Tensor,
        f: F,
    ) -> Result<Tensor, TensorError> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                op: "zip_with",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when the tensor is not rank 2.
    pub fn transpose2d(&self) -> Result<Tensor, TensorError> {
        if self.shape.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose2d",
                expected: 2,
                actual: self.shape.ndim(),
            });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Returns the squared Euclidean (Frobenius) norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Returns the Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Returns the Euclidean distance to `other`.
    ///
    /// The paper's *ImageLoss* metric for DRIA is exactly this distance
    /// between the reconstructed and the original image.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn distance(&self, other: &Tensor) -> Result<f32, TensorError> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                op: "distance",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let d: f32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum();
        Ok(d.sqrt())
    }

    /// Returns `true` when every element differs from `other` by at most
    /// `tol` (and shapes match).
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape.same_as(&other.shape)
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        const PREVIEW: usize = 8;
        for (i, x) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.4}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", …({} total)", self.data.len())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.5).data(), &[7.5, 7.5]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 2]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 4], &[2, 2]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 9.0);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert!(t.set(&[2, 0], 1.0).is_err());
    }

    #[test]
    fn reshape_checks_numel() {
        let t = Tensor::zeros(&[2, 6]);
        assert!(t.reshape(&[3, 4]).is_ok());
        assert!(t.reshape(&[5]).is_err());
        let mut u = t.clone();
        u.reshape_in_place(&[12]).unwrap();
        assert_eq!(u.dims(), &[12]);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.map(|x| x + 1.0).data(), &[2.0, 3.0]);
        assert_eq!(a.zip_with(&b, |x, y| x * y).unwrap().data(), &[10.0, 40.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.zip_with(&c, |x, _| x).is_err());
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose2d().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(Tensor::zeros(&[2, 2, 2]).transpose2d().is_err());
    }

    #[test]
    fn norms_and_distance() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.norm(), 5.0);
        let b = Tensor::zeros(&[2]);
        assert_eq!(a.distance(&b).unwrap(), 5.0);
        assert!(a.distance(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0005, 2.0], &[2]).unwrap();
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5));
        assert!(!a.approx_eq(&Tensor::zeros(&[3]), 1.0));
    }

    #[test]
    fn display_preview_truncates() {
        let t = Tensor::zeros(&[100]);
        let s = t.to_string();
        assert!(s.contains("100 total"));
    }

    #[test]
    fn a_clone_compares_equal() {
        // Tensors cross the wire through `gradsec-fl::message`'s
        // hand-written codec, tested there; this checks only the clone.
        let t = Tensor::from_vec(vec![1.5, -2.5], &[2]).unwrap();
        let u = t.clone();
        assert_eq!(t, u);
    }
}
