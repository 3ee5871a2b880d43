use std::fmt;

use crate::TensorError;

/// A row-major tensor shape.
///
/// Shapes are small vectors of dimension sizes. The empty shape denotes a
/// scalar with one element. Dimensions of size zero are allowed (the tensor
/// then holds zero elements), which keeps edge cases such as empty batches
/// well defined.
///
/// # Example
///
/// ```
/// use gradsec_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimension sizes.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Creates the scalar (rank-0) shape.
    pub(crate) fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Returns the dimension sizes.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Returns the number of dimensions (the rank).
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Returns the total number of elements.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns the size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.ndim()`.
    pub(crate) fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Returns row-major strides (in elements, not bytes).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank differs
    /// from the shape rank or any coordinate exceeds its dimension.
    pub(crate) fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.dims.len() || index.iter().zip(&self.dims).any(|(i, d)| i >= d) {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims.clone(),
            });
        }
        Ok(index.iter().zip(self.strides()).map(|(i, s)| i * s).sum())
    }

    /// Returns `true` when both shapes have identical dimensions.
    pub(crate) fn same_as(&self, other: &Shape) -> bool {
        self.dims == other.dims
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_strides() {
        let s = Shape::new(&[3, 4, 5]);
        assert_eq!(s.numel(), 60);
        assert_eq!(s.strides(), vec![20, 5, 1]);
        assert_eq!(s.ndim(), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.numel(), 1);
        assert_eq!(s.ndim(), 0);
        assert!(s.strides().is_empty());
        assert_eq!(s.offset(&[]).unwrap(), 0);
    }

    #[test]
    fn zero_dim_means_empty() {
        let s = Shape::new(&[4, 0, 2]);
        assert_eq!(s.numel(), 0);
    }

    #[test]
    fn offset_row_major() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.offset(&[0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[0, 2]).unwrap(), 2);
        assert_eq!(s.offset(&[1, 0]).unwrap(), 3);
        assert_eq!(s.offset(&[1, 2]).unwrap(), 5);
    }

    #[test]
    fn offset_rejects_bad_index() {
        let s = Shape::new(&[2, 3]);
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0]).is_err());
        assert!(s.offset(&[0, 0, 0]).is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "(2x3)");
        assert_eq!(Shape::scalar().to_string(), "()");
    }

    #[test]
    fn conversions() {
        let a: Shape = [1, 2].into();
        let b: Shape = vec![1, 2].into();
        let c: Shape = (&[1usize, 2][..]).into();
        assert!(a.same_as(&b));
        assert!(b.same_as(&c));
    }
}
