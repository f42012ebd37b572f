//! Optimizers.
//!
//! Optimizers keep their per-parameter state (momentum buffers, Adam
//! moments) indexed by parameter position, so a single optimizer instance is
//! bound to one stage's parameter list for its lifetime — exactly how the
//! PipeDream runtime uses them (one optimizer per stage replica).

use crate::layers::Param;
use crate::tensor::Tensor;

/// A gradient-descent optimizer applied to a stage's parameter list.
pub trait Optimizer: Send {
    /// Apply one update using the accumulated gradients, then zero them.
    fn step(&mut self, params: &mut [&mut Param]);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replace the learning rate (for LR schedules / warm-up, §5.1).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional momentum and weight decay.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Sgd::with_momentum(lr, 0.0, 0.0)
    }

    /// SGD with momentum `mu` and L2 weight decay `wd`.
    pub fn with_momentum(lr: f32, mu: f32, wd: f32) -> Self {
        Sgd {
            lr,
            momentum: mu,
            weight_decay: wd,
            velocity: Vec::new(),
        }
    }
}

/// One SGD step over one parameter in a single pass, doing per element
/// exactly what the tensor-level sequence does — `g += wd·θ`, `v ← μv`,
/// `v += 1·g`, `θ += (−lr)·v` (or `θ += (−lr)·g` without momentum), then
/// `g ← 0` — so results are bit-identical to it. The flags are constants
/// so every variant compiles to a branch-free loop.
fn sgd_pass<const MOMENTUM: bool, const DECAY: bool>(
    w: &mut [f32],
    g: &mut [f32],
    v: &mut [f32],
    lr: f32,
    mu: f32,
    wd: f32,
) {
    for ((w, g), v) in w.iter_mut().zip(g.iter_mut()).zip(v.iter_mut()) {
        let mut gi = *g;
        if DECAY {
            gi += wd * *w;
        }
        if MOMENTUM {
            let mut vi = *v * mu;
            vi += 1.0 * gi;
            *v = vi;
            *w += -lr * vi;
        } else {
            *w += -lr * gi;
        }
        *g = 0.0;
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
        }
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "optimizer bound to a different parameter list"
        );
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        for (p, v) in params.iter_mut().zip(self.velocity.iter_mut()) {
            let Param { value, grad, .. } = &mut **p;
            assert_eq!(value.shape(), grad.shape(), "gradient shape mismatch");
            assert_eq!(value.shape(), v.shape(), "velocity shape mismatch");
            let (w, g, v) = (value.data_mut(), grad.data_mut(), v.data_mut());
            match (mu != 0.0, wd != 0.0) {
                (true, true) => sgd_pass::<true, true>(w, g, v, lr, mu, wd),
                (true, false) => sgd_pass::<true, false>(w, g, v, lr, mu, wd),
                (false, true) => sgd_pass::<false, true>(w, g, v, lr, mu, wd),
                (false, false) => sgd_pass::<false, false>(w, g, v, lr, mu, wd),
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) — used by the paper for GNMT training.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(self.m.len(), params.len());
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params
            .iter_mut()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
        {
            let Param { value, grad, .. } = &mut **p;
            let gd = grad.data();
            let pv = value.data_mut();
            let md = m.data_mut();
            let vd = v.data_mut();
            for i in 0..pv.len() {
                let g = gd[i];
                let mi = self.beta1 * md[i] + (1.0 - self.beta1) * g;
                let vi = self.beta2 * vd[i] + (1.0 - self.beta2) * g * g;
                md[i] = mi;
                vd[i] = vi;
                let mhat = mi / b1t;
                let vhat = vi / b2t;
                pv[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            p.zero_grad();
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(v: &[f32], g: &[f32]) -> Param {
        let mut p = Param::new("p", Tensor::from_slice(v));
        p.grad = Tensor::from_slice(g);
        p
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = param(&[1.0], &[2.0]);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut [&mut p]);
        assert!((p.value.data()[0] - 0.8).abs() < 1e-6);
        assert_eq!(p.grad.data()[0], 0.0, "step must zero the gradient");
    }

    #[test]
    fn momentum_accumulates() {
        let mut p = param(&[0.0], &[1.0]);
        let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
        opt.step(&mut [&mut p]);
        // Second step with the same gradient: v = 0.9·1 + 1 = 1.9.
        p.grad = Tensor::from_slice(&[1.0]);
        opt.step(&mut [&mut p]);
        assert!((p.value.data()[0] - (-0.1 - 0.19)).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = param(&[1.0], &[0.0]);
        let mut opt = Sgd::with_momentum(0.1, 0.0, 0.5);
        opt.step(&mut [&mut p]);
        assert!((p.value.data()[0] - 0.95).abs() < 1e-6);
    }

    /// The tensor-level SGD sequence the fused step must reproduce.
    fn unfused_sgd_step(p: &mut Param, v: &mut Tensor, lr: f32, mu: f32, wd: f32) {
        if wd != 0.0 {
            p.grad.axpy(wd, &p.value);
        }
        if mu != 0.0 {
            v.scale_inplace(mu);
            v.axpy(1.0, &p.grad);
            p.value.axpy(-lr, v);
        } else {
            let Param { value, grad, .. } = p;
            value.axpy(-lr, grad);
        }
        p.zero_grad();
    }

    #[test]
    fn fused_sgd_step_is_bitwise_the_unfused_sequence() {
        use crate::init::{normal, rng};
        for (mu, wd) in [(0.0, 0.0), (0.9, 0.0), (0.0, 1e-3), (0.9, 5e-4)] {
            let mut r = rng(7);
            let mut fused = [
                Param::new("w", normal(&[37, 11], 1.0, &mut r)),
                Param::new("b", normal(&[11], 1.0, &mut r)),
            ];
            let mut reference = fused.clone();
            let mut velocity: Vec<Tensor> = fused
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
            let mut opt = Sgd::with_momentum(0.05, mu, wd);
            for step in 0..5 {
                for (a, b) in fused.iter_mut().zip(reference.iter_mut()) {
                    let g = normal(a.value.shape(), 1.0, &mut r);
                    a.grad.copy_from(&g);
                    b.grad.copy_from(&g);
                }
                let mut refs: Vec<&mut Param> = fused.iter_mut().collect();
                opt.step(&mut refs);
                for (p, v) in reference.iter_mut().zip(velocity.iter_mut()) {
                    unfused_sgd_step(p, v, 0.05, mu, wd);
                }
                for (a, b) in fused.iter().zip(reference.iter()) {
                    let bits =
                        |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&a.value),
                        bits(&b.value),
                        "mu {mu} wd {wd}: {} diverged at step {step}",
                        a.name
                    );
                    assert!(a.grad.data().iter().all(|&g| g == 0.0), "step zeroes grads");
                }
                for (a, b) in opt.velocity.iter().zip(velocity.iter()) {
                    assert_eq!(a, b, "mu {mu} wd {wd}: velocity at step {step}");
                }
            }
        }
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut p = param(&[0.0], &[0.3]);
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut p]);
        // Bias correction makes the first step ≈ lr·sign(g).
        assert!((p.value.data()[0] + 0.01).abs() < 1e-4);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize (x-3)² starting at 0.
        let mut p = param(&[0.0], &[0.0]);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let x = p.value.data()[0];
            p.grad = Tensor::from_slice(&[2.0 * (x - 3.0)]);
            opt.step(&mut [&mut p]);
        }
        assert!((p.value.data()[0] - 3.0).abs() < 0.05);
    }

    #[test]
    fn lr_is_adjustable() {
        let mut opt = Sgd::new(0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
