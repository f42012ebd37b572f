//! Figure 9: weight stashing as minibatch 5 flows across stages.
//!
//! Reproduced *for real*: a 3-stage pipeline trains an actual model in the
//! runtime; the version trace shows which weight version each stage's
//! forward pass of minibatch 5 used — stage 0 has seen only minibatch 1's
//! update, later stages have seen more (exactly the paper's picture).

use crate::util::format_table;
use pipedream_core::PipelineConfig;
use pipedream_runtime::{train_pipeline, LrSchedule, OptimKind, Semantics, TrainOpts};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu};
use pipedream_tensor::Sequential;
use std::fmt;

/// Version trace for a few minibatches.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// `(minibatch, stage, version-used-for-forward)` records.
    pub records: Vec<(u64, usize, u64)>,
    /// Number of stages.
    pub stages: usize,
}

/// Run the experiment: 3-stage straight pipeline, weight stashing.
pub fn run() -> Fig9 {
    let mut r = rng(99);
    let model = Sequential::new("fig9")
        .push(Linear::new(8, 16, &mut r))
        .push(Relu::new())
        .push(Linear::new(16, 16, &mut r))
        .push(Relu::new())
        .push(Linear::new(16, 16, &mut r))
        .push(Linear::new(16, 3, &mut r));
    let config = PipelineConfig::straight(6, &[1, 3]);
    let data = blobs(96, 8, 3, 0.5, 42);
    let opts = TrainOpts {
        epochs: 2,
        batch: 8,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
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
    let (_, report) = train_pipeline(model, &config, &data, &opts);
    let records = report
        .version_trace
        .iter()
        .filter(|r| r.mb <= 8)
        .map(|r| (r.mb, r.stage, r.version))
        .collect();
    Fig9 { records, stages: 3 }
}

impl Fig9 {
    /// Version used at `stage` for minibatch `mb`.
    pub fn version(&self, mb: u64, stage: usize) -> Option<u64> {
        self.records
            .iter()
            .find(|&&(m, s, _)| m == mb && s == stage)
            .map(|&(_, _, v)| v)
    }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 9: weight versions used for each minibatch's forward pass\n\
             (version v = weights after v updates; stage s of n lags n-1-s behind)\n"
        )?;
        let header = ["minibatch", "stage 0", "stage 1", "stage 2"];
        let mbs: Vec<u64> = {
            let mut v: Vec<u64> = self.records.iter().map(|r| r.0).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let rows: Vec<Vec<String>> = mbs
            .iter()
            .map(|&mb| {
                let mut row = vec![mb.to_string()];
                for s in 0..self.stages {
                    row.push(
                        self.version(mb, s)
                            .map(|v| format!("w({v})"))
                            .unwrap_or_else(|| "-".into()),
                    );
                }
                row
            })
            .collect();
        write!(f, "{}", format_table(&header, &rows))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn minibatch5_versions_increase_along_stages() {
        let f = super::run();
        // Steady state: stage s uses version mb − (n−1−s); for mb 5 of a
        // 3-stage pipeline that is w(3), w(4), w(5).
        assert_eq!(f.version(5, 0), Some(3));
        assert_eq!(f.version(5, 1), Some(4));
        assert_eq!(f.version(5, 2), Some(5));
    }
}
