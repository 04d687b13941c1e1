//! The training step every delivered minibatch goes through, and the
//! single-thread reference training that `train_loss_final` is divided by.

use crate::trace::Tracer;
use pcr_jpeg::ImageBuf;
use pcr_nn::{Matrix, Mlp, ModelSpec, SgdMomentum};

/// Minibatch size of the training step.
pub const BATCH: usize = 32;
const LR: f32 = 0.05;
const NUM_CLASSES: usize = 7;

/// Features of one image as the training step sees them.
pub fn featurize(img: &ImageBuf) -> Vec<f32> {
    ModelSpec::resnet_like().featurize(img)
}

/// A ResNet-like MLP trained with SGD + momentum, initialized from the
/// workload seed.
pub struct Trainer {
    spec: ModelSpec,
    model: Mlp,
    opt: SgdMomentum,
}

impl Trainer {
    /// A fresh model and optimizer.
    pub fn new(seed: u64) -> Self {
        let spec = ModelSpec::resnet_like();
        Self {
            model: Mlp::new(spec.clone(), NUM_CLASSES, seed),
            spec,
            opt: SgdMomentum::new(0.9),
        }
    }

    /// Featurizes and trains on one minibatch; returns (summed loss, images).
    pub fn step(
        &mut self,
        images: &[ImageBuf],
        labels: &[u32],
        tracer: &mut Tracer,
    ) -> (f64, usize) {
        let x = tracer.time("featurize", || {
            let mut features = Vec::with_capacity(images.len() * self.spec.input_dim());
            for img in images {
                features.extend(self.spec.featurize(img));
            }
            features
        });
        self.step_features(x, labels, tracer)
    }

    /// Trains on already featurized images (concatenated rows).
    pub fn step_features(
        &mut self,
        features: Vec<f32>,
        labels: &[u32],
        tracer: &mut Tracer,
    ) -> (f64, usize) {
        let x = Matrix::from_vec(labels.len(), self.spec.input_dim(), features);
        let (model, opt) = (&mut self.model, &mut self.opt);
        let step = tracer.time("step", || {
            let step = model.backward(&x, labels);
            opt.step(model, &step.grads, LR);
            step
        });
        (step.loss * step.n as f64, step.n)
    }
}

/// Mean loss of the last of `epochs` epochs of single-thread training from
/// `seed` over `items` (features and label per image), each epoch visiting
/// the items in the order `order(epoch)` yields, in minibatches of
/// [`BATCH`].
pub fn reference_loss<'a, I>(seed: u64, epochs: u64, mut order: impl FnMut(u64) -> I) -> f64
where
    I: Iterator<Item = &'a (Vec<f32>, u32)>,
{
    let mut trainer = Trainer::new(seed);
    let mut tracer = Tracer::new(false);
    let mut last = f64::NAN;
    for epoch in 0..epochs {
        let (mut loss, mut n) = (0.0, 0usize);
        let mut features = Vec::new();
        let mut labels = Vec::with_capacity(BATCH);
        let mut items = order(epoch).peekable();
        while let Some((f, label)) = items.next() {
            features.extend_from_slice(f);
            labels.push(*label);
            if labels.len() == BATCH || items.peek().is_none() {
                let (l, k) =
                    trainer.step_features(std::mem::take(&mut features), &labels, &mut tracer);
                loss += l;
                n += k;
                labels.clear();
            }
        }
        last = loss / n.max(1) as f64;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_training_is_deterministic_and_learns() {
        let items: Vec<(Vec<f32>, u32)> = (0..96u32)
            .map(|i| {
                let label = i % 3;
                let f = (0..ModelSpec::resnet_like().input_dim())
                    .map(|j| if j % 3 == label as usize { 1.0 } else { -1.0 })
                    .collect();
                (f, label)
            })
            .collect();
        let a = reference_loss(1, 4, |_| items.iter());
        assert_eq!(a, reference_loss(1, 4, |_| items.iter()));
        assert!(
            a < reference_loss(1, 1, |_| items.iter()),
            "loss falls with training"
        );
    }
}
