//! Optimizers.

use crate::network::Network;
use tensordash_tensor::Tensor;

/// Stochastic gradient descent with classical momentum:
/// `v ← μ·v + g`, `w ← w − λ·v`.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    ///
    /// # Panics
    ///
    /// Panics if the learning rate is not positive or momentum is outside
    /// `[0, 1)`.
    #[must_use]
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// The learning rate.
    #[must_use]
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update to every parameter of `network` using the
    /// gradients stored by the last backward pass.
    pub fn step(&mut self, network: &mut Network) {
        let mut index = 0;
        let (lr, momentum) = (self.lr, self.momentum);
        let velocity = &mut self.velocity;
        network.visit_params(&mut |param, grad| {
            if velocity.len() <= index {
                velocity.push(Tensor::zeros(grad.shape()));
            }
            let v = &mut velocity[index];
            assert_eq!(
                v.shape(),
                grad.shape(),
                "parameter order changed between steps"
            );
            for ((v, &g), p) in v
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(param.data_mut())
            {
                *v = momentum * *v + g;
                *p -= lr * *v;
            }
            index += 1;
        });
    }

    /// The momentum buffer of parameter `index`, if a step has run.
    #[must_use]
    pub fn velocity(&self, index: usize) -> Option<&Tensor> {
        self.velocity.get(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sgd_reduces_loss_on_a_fixed_batch() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut net = Network::small_cnn(1, 12, 4, &mut rng);
        let mut opt = Sgd::new(0.05, 0.9);
        let x = Tensor::random(
            &[8, 1, 12, 12],
            rand::distributions::Uniform::new(-1.0, 1.0),
            &mut rng,
        );
        let labels = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let (first, _) = net.train_step(&x, &labels);
        opt.step(&mut net);
        let mut last = first;
        for _ in 0..30 {
            let (loss, _) = net.train_step(&x, &labels);
            opt.step(&mut net);
            last = loss;
        }
        assert!(
            last < first * 0.5,
            "overfitting a fixed batch must cut loss: {first} -> {last}"
        );
    }

    #[test]
    fn momentum_accumulates() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Network::small_cnn(1, 12, 4, &mut rng);
        let mut opt = Sgd::new(0.01, 0.9);
        let x = Tensor::random(
            &[4, 1, 12, 12],
            rand::distributions::Uniform::new(-1.0, 1.0),
            &mut rng,
        );
        let _ = net.train_step(&x, &[0, 1, 2, 3]);
        opt.step(&mut net);
        assert!(opt.velocity(0).unwrap().norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(0.0, 0.9);
    }
}
