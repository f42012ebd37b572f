//! Figure 11: accuracy vs *epoch* — PipeDream's statistical efficiency
//! matches data parallelism.
//!
//! Two complementary reproductions:
//!
//! 1. the paper-scale curves (VGG-16 top-1, GNMT-16 BLEU) from the
//!    calibrated convergence model, where weight stashing is BSP-identical
//!    by construction (the calibration encodes the paper's Figure 11);
//! 2. a *real* measurement on the training runtime: a small model trained
//!    (a) sequentially, (b) 4-stage pipelined with weight stashing, and
//!    (c) 4-stage pipelined naively — per-epoch accuracies show (a) ≈ (b)
//!    while (c) trails.

use crate::util::format_table;
use pipedream_convergence::{gnmt, vgg16 as vgg_task, Mode, Task};
use pipedream_core::PipelineConfig;
use pipedream_runtime::{
    train_pipeline, train_sequential, LrSchedule, OptimKind, Semantics, TrainOpts,
};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Tanh};
use pipedream_tensor::Sequential;
use std::fmt;

/// Result of the runtime measurement (per-epoch training loss; loss shows
/// the gradient-validity gap more sharply than accuracy on a small task).
#[derive(Debug, Clone)]
pub struct RuntimeParity {
    /// Per-epoch loss, sequential SGD.
    pub sequential: Vec<f32>,
    /// Per-epoch loss, 4-stage 1F1B with weight stashing.
    pub stashed: Vec<f32>,
    /// Per-epoch loss, 4-stage naive pipelining.
    pub naive: Vec<f32>,
}

/// The figure: model-scale curves plus the real runtime parity check.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// (task, epochs-to-target) for BSP == weight stashing.
    pub tasks: Vec<(Task, f64)>,
    /// Real-runtime accuracy-vs-epoch comparison.
    pub runtime: RuntimeParity,
}

fn mlp(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new("fig11")
        .push(Linear::new(8, 48, &mut r))
        .push(Tanh::new())
        .push(Linear::new(48, 48, &mut r))
        .push(Relu::new())
        .push(Linear::new(48, 48, &mut r))
        .push(Tanh::new())
        .push(Linear::new(48, 48, &mut r))
        .push(Linear::new(48, 4, &mut r))
}

/// Run the experiment (`epochs` of real training; 14 is enough to see the
/// separation while staying fast in CI).
pub fn run(epochs: usize) -> Fig11 {
    let tasks = vec![
        (
            vgg_task(),
            vgg_task().epochs_to_target(Mode::WeightStashing).unwrap(),
        ),
        (
            gnmt(),
            gnmt().epochs_to_target(Mode::WeightStashing).unwrap(),
        ),
    ];
    let data = blobs(256, 8, 4, 1.0, 2);
    let opts = TrainOpts {
        epochs,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.04,
            momentum: 0.9,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    };
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (_, seq) = train_sequential(mlp(3), &data, &opts);
    let (_, stash) = train_pipeline(mlp(3), &config, &data, &opts);
    let mut naive_opts = opts.clone();
    naive_opts.semantics = Semantics::Naive;
    let (_, naive) = train_pipeline(mlp(3), &config, &data, &naive_opts);
    Fig11 {
        tasks,
        runtime: RuntimeParity {
            sequential: seq.per_epoch.iter().map(|e| e.loss).collect(),
            stashed: stash.per_epoch.iter().map(|e| e.loss).collect(),
            naive: naive.per_epoch.iter().map(|e| e.loss).collect(),
        },
    }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 11: statistical efficiency — accuracy vs epoch\n\n\
             Model-scale (calibrated curves; weight stashing ≡ BSP):"
        )?;
        for (task, e) in &self.tasks {
            writeln!(
                f,
                "  {:<10} target {} {} in {:.0} epochs (same for DP and PipeDream)",
                task.model, task.target, task.metric, e
            )?;
        }
        writeln!(
            f,
            "\nReal runtime, training loss per epoch (4-stage pipeline, small MLP,\n\
             4-class blobs — stashing tracks sequential SGD; naive pipelining lags):"
        )?;
        let header = ["epoch", "sequential", "1F1B+stash", "naive"];
        let rows: Vec<Vec<String>> = (0..self.runtime.sequential.len())
            .map(|e| {
                vec![
                    e.to_string(),
                    format!("{:.4}", self.runtime.sequential[e]),
                    format!("{:.4}", self.runtime.stashed[e]),
                    format!("{:.4}", self.runtime.naive[e]),
                ]
            })
            .collect();
        write!(f, "{}", format_table(&header, &rows))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn stashed_tracks_sequential_and_beats_naive() {
        let f = super::run(16);
        let last = f.runtime.sequential.len() - 1;
        let seq = f.runtime.sequential[last];
        let stash = f.runtime.stashed[last];
        let naive = f.runtime.naive[last];
        assert!(
            stash < seq * 1.5,
            "stashed loss {stash} should track sequential {seq}"
        );
        assert!(
            stash < naive,
            "stashed loss {stash} should beat naive {naive}"
        );
    }
}
