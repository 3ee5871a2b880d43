//! Sequential model container.

use serde::{Deserialize, Serialize};

use gradsec_tensor::ops::reduce::argmax_rows;
use gradsec_tensor::{BackendKind, Tensor};

use crate::gradient::{GradientSnapshot, LayerGradient};
use crate::layer::Layer;
use crate::loss::Loss;
use crate::optim::Optimizer;
use crate::{NnError, Result};

/// Serializable weights of one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerWeights {
    /// Weight matrix.
    pub w: Tensor,
    /// Bias vector.
    pub b: Tensor,
}

/// Serializable weights of a whole model — the object the FL server ships
/// to clients and the *state* whose per-cycle difference leaks gradients
/// via the paper's Flaw 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ModelWeights {
    layers: Vec<LayerWeights>,
}

impl ModelWeights {
    /// Builds from per-layer weights in layer order.
    pub fn new(layers: Vec<LayerWeights>) -> Self {
        ModelWeights { layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Iterates over layers in order.
    pub fn iter(&self) -> impl Iterator<Item = &LayerWeights> {
        self.layers.iter()
    }

    /// The weights of layer `index`.
    pub fn layer(&self, index: usize) -> Option<&LayerWeights> {
        self.layers.get(index)
    }

    /// Total number of scalars.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.numel() + l.b.numel()).sum()
    }

    /// In-place `self ← self + alpha·other` (FedAvg accumulation).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::IncompatibleWeights`] on architecture mismatch.
    pub fn add_scaled(&mut self, other: &ModelWeights, alpha: f32) -> Result<()> {
        if self.layers.len() != other.layers.len() {
            return Err(NnError::IncompatibleWeights {
                reason: format!(
                    "layer counts differ: {} vs {}",
                    self.layers.len(),
                    other.layers.len()
                ),
            });
        }
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            if a.w.dims() != b.w.dims() || a.b.dims() != b.b.dims() {
                return Err(NnError::IncompatibleWeights {
                    reason: "layer weight shapes differ".to_owned(),
                });
            }
            for (x, &y) in a.w.data_mut().iter_mut().zip(b.w.data()) {
                *x += alpha * y;
            }
            for (x, &y) in a.b.data_mut().iter_mut().zip(b.b.data()) {
                *x += alpha * y;
            }
        }
        Ok(())
    }

    /// Scales all weights in place.
    pub fn scale(&mut self, s: f32) {
        for l in &mut self.layers {
            l.w.map_in_place(|x| x * s);
            l.b.map_in_place(|x| x * s);
        }
    }
}

/// Statistics from one training batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Correctly-classified samples.
    pub correct: usize,
    /// Batch size.
    pub total: usize,
}

impl BatchStats {
    /// Classification accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f32 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f32 / self.total as f32
        }
    }
}

/// A feed-forward stack of layers trained with a shared loss — the model
/// class assumed by the paper's threat model (§4: fully-connected and
/// convolutional feed-forward networks).
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    loss: Loss,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("loss", &self.loss)
            .field(
                "layers",
                &self
                    .layers
                    .iter()
                    .map(|l| l.kind().to_string())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Sequential {
    /// Creates an empty model with the given loss.
    pub fn new(loss: Loss) -> Self {
        Sequential {
            layers: Vec::new(),
            loss,
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// The training loss.
    pub fn loss(&self) -> Loss {
        self.loss
    }

    /// Number of layers (the paper's `n`).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Borrows layer `index`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchLayer`] when out of range.
    pub fn layer(&self, index: usize) -> Result<&dyn Layer> {
        self.layers
            .get(index)
            .map(|b| b.as_ref())
            .ok_or(NnError::NoSuchLayer {
                index,
                len: self.layers.len(),
            })
    }

    /// Mutably borrows layer `index`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchLayer`] when out of range.
    pub fn layer_mut(&mut self, index: usize) -> Result<&mut (dyn Layer + 'static)> {
        let len = self.layers.len();
        self.layers
            .get_mut(index)
            .map(|b| b.as_mut())
            .ok_or(NnError::NoSuchLayer { index, len })
    }

    /// Iterates over the layers in order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Layer> {
        self.layers.iter().map(|b| b.as_ref())
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Points every layer at `backend` for all future forward/backward
    /// passes. Weights are untouched, so switching backends mid-training
    /// is safe (though it changes subsequent rounding for non-reference
    /// backends). [`Sequential::replicate`] copies the selection into
    /// every replica — set it once on the prototype and every replica an
    /// FL client trains inherits it.
    pub fn set_backend(&mut self, backend: BackendKind) -> &mut Self {
        for l in &mut self.layers {
            l.set_backend(backend);
        }
        self
    }

    /// The kernel backend the model's layers dispatch through
    /// ([`BackendKind::Reference`] for empty models; layers are only ever
    /// assigned one backend collectively via
    /// [`Sequential::set_backend`]).
    pub fn backend(&self) -> BackendKind {
        self.layers.first().map(|l| l.backend()).unwrap_or_default()
    }

    /// Runs the full forward pass, caching per-layer state for backward.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyModel`] for empty models or shape errors from
    /// the layers.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(NnError::EmptyModel);
        }
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Runs the full backward pass from a loss delta, storing per-layer
    /// gradients; returns the error w.r.t. the model input (which the DRIA
    /// attacker uses to optimise dummy images).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] (with the correct layer
    /// index) when `forward` has not run.
    pub fn backward(&mut self, loss_delta: &Tensor) -> Result<Tensor> {
        let input_grad = self.backward_from(loss_delta, true)?;
        Ok(input_grad.expect("asked for the input gradient"))
    }

    /// The one backward pass. Without `input_grad` (a training step never
    /// reads the error w.r.t. its own batch) layer 0 runs
    /// [`Layer::backward_params`] and nothing is returned.
    fn backward_from(&mut self, loss_delta: &Tensor, input_grad: bool) -> Result<Option<Tensor>> {
        if self.layers.is_empty() {
            return Err(NnError::EmptyModel);
        }
        let mut delta = Some(loss_delta.clone());
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let upstream = delta.as_ref().expect("only layer 0 returns no error");
            let step = if i > 0 || input_grad {
                layer.backward(upstream).map(Some)
            } else {
                layer.backward_params(upstream).map(|()| None)
            };
            delta = step.map_err(|e| match e {
                NnError::BackwardBeforeForward { .. } => {
                    NnError::BackwardBeforeForward { layer: i }
                }
                other => other,
            })?;
        }
        Ok(delta)
    }

    /// Forward + loss + backward without a parameter update; returns the
    /// loss and the gradient snapshot. This is the attacker-side primitive
    /// (DRIA computes gradients of dummy data this way) and the measurement
    /// primitive for MIA features.
    ///
    /// # Errors
    ///
    /// Propagates forward/backward errors.
    pub fn forward_backward(
        &mut self,
        input: &Tensor,
        targets: &Tensor,
    ) -> Result<(f32, GradientSnapshot)> {
        let logits = self.forward(input)?;
        let (loss, delta) = self.loss.evaluate(&logits, targets)?;
        self.backward_from(&delta, false)?;
        let snapshot = self
            .gradient_snapshot()
            .expect("backward has just populated gradients");
        Ok((loss, snapshot))
    }

    /// One SGD training step over a batch: forward, loss, backward, update.
    ///
    /// Returns the batch statistics; gradients remain available through
    /// [`Sequential::gradient_snapshot`] until the next `zero_grads`.
    ///
    /// # Errors
    ///
    /// Propagates forward/backward errors.
    pub fn train_batch(
        &mut self,
        input: &Tensor,
        targets: &Tensor,
        opt: &mut dyn Optimizer,
    ) -> Result<BatchStats> {
        let logits = self.forward(input)?;
        let (loss, delta) = self.loss.evaluate(&logits, targets)?;
        let correct = count_correct(&logits, targets)?;
        self.backward_from(&delta, false)?;
        self.apply_gradients(opt);
        Ok(BatchStats {
            loss,
            correct,
            total: logits.dims()[0],
        })
    }

    /// Applies the stored gradients through `opt` (two slots per layer:
    /// weights then bias).
    pub fn apply_gradients(&mut self, opt: &mut dyn Optimizer) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let Some(pairs) = layer.params_with_grads() else {
                continue;
            };
            for (k, (param, grad)) in pairs.into_iter().enumerate() {
                opt.update(2 * i + k, param, grad);
            }
        }
    }

    /// Collects the per-layer gradients stored by the last backward pass.
    ///
    /// Returns `None` when any layer has no gradient (no backward ran).
    pub fn gradient_snapshot(&self) -> Option<GradientSnapshot> {
        let mut grads = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let (dw, db) = layer.grads()?;
            grads.push(LayerGradient {
                layer: i,
                dw: dw.clone(),
                db: db.clone(),
            });
        }
        Some(GradientSnapshot::new(grads))
    }

    /// Exports all weights (deep copy).
    pub fn weights(&self) -> ModelWeights {
        ModelWeights::new(
            self.layers
                .iter()
                .map(|l| {
                    let (w, b) = l.weights();
                    LayerWeights {
                        w: w.clone(),
                        b: b.clone(),
                    }
                })
                .collect(),
        )
    }

    /// Checks that `weights` has this model's layer count and shapes.
    fn check_fits(&self, weights: &ModelWeights) -> Result<()> {
        if weights.num_layers() != self.layers.len() {
            return Err(NnError::IncompatibleWeights {
                reason: format!(
                    "model has {} layers, weights have {}",
                    self.layers.len(),
                    weights.num_layers()
                ),
            });
        }
        for (layer, lw) in self.layers.iter().zip(weights.iter()) {
            let (w, b) = layer.weights();
            if w.dims() != lw.w.dims() || b.dims() != lw.b.dims() {
                return Err(NnError::IncompatibleWeights {
                    reason: "layer weight shapes differ".to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Imports weights (the FL model download step, Figure 2-➋).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::IncompatibleWeights`] on any architecture
    /// mismatch, before anything is written.
    pub fn set_weights(&mut self, weights: &ModelWeights) -> Result<()> {
        self.check_fits(weights)?;
        for (layer, lw) in self.layers.iter_mut().zip(weights.iter()) {
            let (w, b) = layer.weights_mut();
            w.data_mut().copy_from_slice(lw.w.data());
            b.data_mut().copy_from_slice(lw.b.data());
        }
        Ok(())
    }

    /// Clears stored gradients on every layer.
    pub fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    /// Drops all forward caches (frees activation memory between cycles).
    pub fn clear_caches(&mut self) {
        for l in &mut self.layers {
            l.clear_cache();
        }
    }

    /// Deep-copies the model: identical weights and architecture, with
    /// caches and gradients cleared. This is how a federation builds the
    /// replicas its clients' cycles borrow from one prototype without
    /// re-running weight initialisation per copy.
    pub fn replicate(&self) -> Sequential {
        let mut copy = Sequential {
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
            loss: self.loss,
        };
        copy.zero_grads();
        copy.clear_caches();
        copy
    }

    /// Classification accuracy of the model on `(input, one-hot targets)`.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn accuracy(&mut self, input: &Tensor, targets: &Tensor) -> Result<f32> {
        let logits = self.forward(input)?;
        let correct = count_correct(&logits, targets)?;
        Ok(correct as f32 / logits.dims()[0].max(1) as f32)
    }
}

fn count_correct(logits: &Tensor, targets: &Tensor) -> Result<usize> {
    let pred = argmax_rows(logits)?;
    let truth = argmax_rows(targets)?;
    Ok(pred.iter().zip(&truth).filter(|(p, t)| p == t).count())
}

#[cfg(test)]
mod replicate_tests {
    use crate::zoo;
    use gradsec_tensor::init;

    #[test]
    fn replica_matches_prototype_and_diverges_independently() {
        let proto = zoo::tiny_mlp(16, 8, 2, 3).unwrap();
        let mut a = proto.replicate();
        let b = proto.replicate();
        assert_eq!(a.weights(), proto.weights());
        assert_eq!(b.weights(), proto.weights());
        // Train one replica; the other and the prototype stay untouched.
        let x = init::uniform(&[4, 16], -1.0, 1.0, 1);
        let y = {
            let mut t = gradsec_tensor::Tensor::zeros(&[4, 2]);
            for i in 0..4 {
                t.set(&[i, i % 2], 1.0).unwrap();
            }
            t
        };
        let mut opt = crate::optim::Sgd::new(0.1);
        a.train_batch(&x, &y, &mut opt).unwrap();
        assert_ne!(a.weights(), proto.weights());
        assert_eq!(b.weights(), proto.weights());
        // Replicating a trained model copies the trained weights.
        let c = a.replicate();
        assert_eq!(c.weights(), a.weights());
    }

    #[test]
    fn replicas_inherit_the_prototype_backend() {
        use gradsec_tensor::BackendKind;
        let mut proto = zoo::tiny_mlp(16, 8, 2, 3).unwrap();
        assert_eq!(proto.backend(), BackendKind::Reference);
        proto.set_backend(BackendKind::Tiled);
        assert_eq!(proto.backend(), BackendKind::Tiled);
        let replica = proto.replicate();
        assert_eq!(replica.backend(), BackendKind::Tiled);
        for l in replica.iter() {
            assert_eq!(l.backend(), BackendKind::Tiled);
        }
    }

    #[test]
    fn tiled_backend_trains_close_to_reference() {
        use gradsec_tensor::BackendKind;
        let proto = zoo::lenet5_with(2, 7).unwrap();
        let x = init::uniform(&[2, 3, 32, 32], 0.0, 1.0, 2);
        let mut y = gradsec_tensor::Tensor::zeros(&[2, 2]);
        y.set(&[0, 0], 1.0).unwrap();
        y.set(&[1, 1], 1.0).unwrap();
        let run = |backend: BackendKind| {
            let mut m = proto.replicate();
            m.set_backend(backend);
            let mut opt = crate::optim::Sgd::new(0.05);
            let stats = m.train_batch(&x, &y, &mut opt).unwrap();
            (stats.loss, m.weights())
        };
        let (loss_ref, w_ref) = run(BackendKind::Reference);
        let (loss_tld, w_tld) = run(BackendKind::Tiled);
        assert!(
            (loss_ref - loss_tld).abs() < 1e-4,
            "{loss_ref} vs {loss_tld}"
        );
        for (a, b) in w_ref.iter().zip(w_tld.iter()) {
            assert!(a.w.approx_eq(&b.w, 1e-3));
            assert!(a.b.approx_eq(&b.b, 1e-3));
        }
    }

    /// `train_batch` skips layer 0's input gradient; nothing else may
    /// differ from the long hand, to the bit, on any backend.
    #[test]
    fn train_batch_equals_the_long_hand_bit_for_bit() {
        use gradsec_tensor::BackendKind;
        let x = init::uniform(&[6, 3, 32, 32], 0.0, 1.0, 2); // two conv bands
        let mut y = gradsec_tensor::Tensor::zeros(&[6, 3]);
        for i in 0..6 {
            y.set(&[i, i % 3], 1.0).unwrap();
        }
        let bits = |m: &crate::Sequential| -> Vec<u32> {
            let w = m.weights();
            let all = w.iter().flat_map(|l| l.w.data().iter().chain(l.b.data()));
            all.map(|x| x.to_bits()).collect()
        };
        for backend in BackendKind::ALL {
            let mut short = zoo::lenet5_with(3, 7).unwrap();
            short.set_backend(backend);
            let mut long = short.replicate();
            let (mut opt_short, mut opt_long) =
                (crate::optim::Sgd::new(0.05), crate::optim::Sgd::new(0.05));
            for _ in 0..2 {
                short.train_batch(&x, &y, &mut opt_short).unwrap();
                let logits = long.forward(&x).unwrap();
                let (_, delta) = long.loss().evaluate(&logits, &y).unwrap();
                long.backward(&delta).unwrap();
                long.apply_gradients(&mut opt_long);
            }
            assert_eq!(bits(&short), bits(&long), "{backend}");
            // After a step that skipped it, `backward` still returns the
            // whole input gradient.
            let logits = long.forward(&x).unwrap();
            let (_, delta) = long.loss().evaluate(&logits, &y).unwrap();
            let want = long.backward(&delta).unwrap();
            short.forward_backward(&x, &y).unwrap();
            assert_eq!(short.backward(&delta).unwrap(), want, "{backend}");
            assert_eq!(want.dims(), x.dims());
        }
    }

    #[test]
    fn replica_of_conv_model_trains() {
        let proto = zoo::lenet5_with(2, 7).unwrap();
        let mut r = proto.replicate();
        let x = init::uniform(&[2, 3, 32, 32], 0.0, 1.0, 2);
        let mut y = gradsec_tensor::Tensor::zeros(&[2, 2]);
        y.set(&[0, 0], 1.0).unwrap();
        y.set(&[1, 1], 1.0).unwrap();
        let mut opt = crate::optim::Sgd::new(0.05);
        let stats = r.train_batch(&x, &y, &mut opt).unwrap();
        assert!(stats.loss.is_finite());
        assert_ne!(r.weights(), proto.weights());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layer::Dense;
    use crate::optim::Sgd;
    use gradsec_tensor::init;

    fn xor_model(seed: u64) -> Sequential {
        let mut m = Sequential::new(Loss::CategoricalCrossEntropy);
        m.push(Box::new(Dense::new(2, 8, Activation::Tanh, seed).unwrap()));
        m.push(Box::new(
            Dense::new(8, 2, Activation::Linear, seed + 1).unwrap(),
        ));
        m
    }

    fn xor_data() -> (Tensor, Tensor) {
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]).unwrap();
        let y = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0], &[4, 2]).unwrap();
        (x, y)
    }

    #[test]
    fn empty_model_errors() {
        let mut m = Sequential::new(Loss::CategoricalCrossEntropy);
        assert!(matches!(
            m.forward(&Tensor::zeros(&[1, 2])),
            Err(NnError::EmptyModel)
        ));
        assert!(matches!(
            m.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::EmptyModel)
        ));
    }

    #[test]
    fn learns_xor() {
        let mut m = xor_model(5);
        let (x, y) = xor_data();
        let mut opt = Sgd::new(0.5);
        let mut last = f32::INFINITY;
        for _ in 0..600 {
            last = m.train_batch(&x, &y, &mut opt).unwrap().loss;
        }
        assert!(last < 0.05, "final loss {last}");
        assert_eq!(m.accuracy(&x, &y).unwrap(), 1.0);
    }

    #[test]
    fn snapshot_roundtrip_and_flaw1_consistency() {
        // The gradient snapshot from backward must equal the Flaw 1
        // weight-diff reconstruction after one plain SGD step.
        let mut m = xor_model(9);
        let (x, y) = xor_data();
        let lr = 0.25f32;
        let before = m.weights();
        let mut opt = Sgd::new(lr);
        m.train_batch(&x, &y, &mut opt).unwrap();
        let true_grads = m.gradient_snapshot().unwrap();
        let after = m.weights();
        let leaked = GradientSnapshot::from_weight_diff(&before, &after, lr).unwrap();
        assert!(leaked.distance(&true_grads).unwrap() < 1e-4);
    }

    #[test]
    fn apply_gradients_steps_every_slot_from_its_own_gradient() {
        // Plain SGD is `p -= lr * g` to the bit, so reading the gradients
        // in place must land exactly where the stored snapshot says.
        let mut m = xor_model(9);
        let (x, y) = xor_data();
        let lr = 0.25f32;
        let before = m.weights();
        let (_, grads) = m.forward_backward(&x, &y).unwrap();
        m.apply_gradients(&mut Sgd::new(lr));
        let step = |p: &Tensor, g: &Tensor| -> Vec<f32> {
            p.data()
                .iter()
                .zip(g.data())
                .map(|(&p, &g)| p - lr * g)
                .collect()
        };
        for ((was, now), g) in before.iter().zip(m.weights().iter()).zip(grads.iter()) {
            assert_eq!(now.w.data(), step(&was.w, &g.dw));
            assert_eq!(now.b.data(), step(&was.b, &g.db));
        }
        // No gradients, no step.
        m.zero_grads();
        let unchanged = m.weights();
        m.apply_gradients(&mut Sgd::new(lr));
        assert_eq!(m.weights(), unchanged);
    }

    #[test]
    fn weights_import_export() {
        let mut a = xor_model(1);
        let mut b = xor_model(2);
        let (x, _) = xor_data();
        let ya = a.forward(&x).unwrap();
        b.set_weights(&a.weights()).unwrap();
        let yb = b.forward(&x).unwrap();
        assert!(ya.approx_eq(&yb, 1e-6));
    }

    #[test]
    fn set_weights_rejects_mismatch() {
        let mut a = xor_model(1);
        let w = ModelWeights::new(vec![]);
        assert!(a.set_weights(&w).is_err());
        let mut tiny = Sequential::new(Loss::CategoricalCrossEntropy);
        tiny.push(Box::new(Dense::new(2, 2, Activation::Linear, 3).unwrap()));
        tiny.push(Box::new(Dense::new(2, 2, Activation::Linear, 4).unwrap()));
        assert!(a.set_weights(&tiny.weights()).is_err());
        // A mismatch in the last layer leaves the first where it was.
        let was = a.weights();
        let mut last = Sequential::new(Loss::CategoricalCrossEntropy);
        last.push(Box::new(Dense::new(2, 8, Activation::Linear, 3).unwrap()));
        last.push(Box::new(Dense::new(8, 3, Activation::Linear, 4).unwrap()));
        assert!(a.set_weights(&last.weights()).is_err());
        assert_eq!(a.weights(), was);
    }

    #[test]
    fn model_weights_arithmetic() {
        let m = xor_model(3);
        let mut w = m.weights();
        let w2 = m.weights();
        let n = w.param_count();
        assert_eq!(n, 2 * 8 + 8 + 8 * 2 + 2);
        w.add_scaled(&w2, 1.0).unwrap();
        w.scale(0.5);
        for (a, b) in w.iter().zip(w2.iter()) {
            assert!(a.w.approx_eq(&b.w, 1e-6));
        }
        assert!(w.add_scaled(&ModelWeights::default(), 1.0).is_err());
    }

    #[test]
    fn backward_before_forward_reports_layer_index() {
        let mut m = xor_model(4);
        let err = m.backward(&Tensor::zeros(&[1, 2])).unwrap_err();
        assert!(matches!(err, NnError::BackwardBeforeForward { layer: 1 }));
    }

    #[test]
    fn gradient_snapshot_none_before_backward() {
        let m = xor_model(6);
        assert!(m.gradient_snapshot().is_none());
    }

    #[test]
    fn zero_grads_and_clear_caches() {
        let mut m = xor_model(7);
        let (x, y) = xor_data();
        m.forward_backward(&x, &y).unwrap();
        assert!(m.gradient_snapshot().is_some());
        m.zero_grads();
        assert!(m.gradient_snapshot().is_none());
        m.clear_caches();
        assert!(m.backward(&Tensor::zeros(&[4, 2])).is_err());
    }

    #[test]
    fn layer_accessors() {
        let m = xor_model(8);
        assert!(m.layer(0).is_ok());
        assert!(m.layer(2).is_err());
        assert_eq!(m.iter().count(), 2);
        let dbg = format!("{m:?}");
        assert!(dbg.contains("Dense(2->8)"));
    }

    #[test]
    fn accuracy_on_known_predictions() {
        let mut m = Sequential::new(Loss::CategoricalCrossEntropy);
        m.push(Box::new(Dense::new(2, 2, Activation::Linear, 10).unwrap()));
        {
            let l = m.layer_mut(0).unwrap();
            let (w, b) = l.weights_mut();
            // Identity map: prediction = argmax(input).
            w.data_mut().copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
            b.data_mut().fill(0.0);
        }
        let x = init::uniform(&[8, 2], 0.0, 1.0, 11);
        let mut y = Tensor::zeros(&[8, 2]);
        for i in 0..8 {
            let c = if x.get(&[i, 0]).unwrap() > x.get(&[i, 1]).unwrap() {
                0
            } else {
                1
            };
            y.set(&[i, c], 1.0).unwrap();
        }
        assert_eq!(m.accuracy(&x, &y).unwrap(), 1.0);
    }
}
