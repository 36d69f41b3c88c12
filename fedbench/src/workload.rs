//! The benchmark's three TACO workloads. Each is chosen so a different
//! layer dominates its round time (see `NOTES.md`):
//!
//! - `cnn-cifar` — compute-bound: local CNN training and evaluation;
//!   uploads are dense, so codec work never runs.
//! - `fleet-q8` — server-bound: a wide MLP over 64 clients with 8-bit
//!   uploads folded decode-free by the sharded backend; no conv work.
//! - `hostile-q4` — fixed-cost-bound: hundreds of ~10 ms rounds of a
//!   tiny MLP under attackers, freeloaders, faults and 4-bit uploads.
//!
//! Every input is a pure function of the workload and `--seed`; the
//! simulator only ever sees the generated inputs and a `SimConfig`
//! built with its builders.

use std::sync::Arc;
use taco_core::compress::{Compressor, NoCompression, Stochastic4Bit, Uniform8Bit};
use taco_core::taco::TacoConfig;
use taco_core::{FederatedAlgorithm, HyperParams, Taco};
use taco_data::{partition, tabular, vision, FederatedDataset};
use taco_nn::{Mlp, Model, PaperCnn};
use taco_sim::freeloader::ClientBehavior;
use taco_sim::{BackendChoice, FaultPlan, SimConfig};
use taco_tensor::Prng;

/// Worker-pool size every child runs with: the two cores of the
/// reference machine, and what a user gets there by default.
pub const THREADS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compute-bound CNN on CIFAR-10-like images.
    CnnCifar,
    /// Server-bound wide MLP with 8-bit uploads on the sharded backend.
    FleetQ8,
    /// Fixed-cost-bound adult MLP under attacks, faults and 4-bit uploads.
    HostileQ4,
}

/// Run-shape constants of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Rounds per run.
    pub rounds: usize,
    /// Test accuracy the run must reach (`rounds_to_target`).
    pub target: f64,
    /// Lowest acceptable final test accuracy: a sanity floor well
    /// above chance and below every seed's plateau, not a tuned score.
    pub floor: f64,
    /// Typical wall seconds of one child run (set-up + rounds) on the
    /// reference machine; sizes how many children fit in `--seconds`.
    pub nominal_child_s: f64,
}

/// Everything a run needs before `Simulation::new`.
pub struct Parts {
    /// The partitioned federation.
    pub fed: FederatedDataset,
    /// The initial model.
    pub model: Box<dyn Model>,
    /// TACO, configured for the run.
    pub algorithm: Box<dyn FederatedAlgorithm>,
    /// The run configuration.
    pub config: SimConfig,
}

/// Seed salts keeping the data, model and simulation streams apart.
const DATA_SALT: u64 = 0xFEDB_DA7A;
const MODEL_SALT: u64 = 0xFEDB_30DE;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::CnnCifar, Workload::FleetQ8, Workload::HostileQ4];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CnnCifar => "cnn-cifar",
            Workload::FleetQ8 => "fleet-q8",
            Workload::HostileQ4 => "hostile-q4",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's run shape.
    pub fn spec(self) -> Spec {
        match self {
            Workload::CnnCifar => Spec {
                rounds: 6,
                target: 0.70,
                floor: 0.50,
                nominal_child_s: 4.6,
            },
            Workload::FleetQ8 => Spec {
                rounds: 12,
                target: 0.50,
                floor: 0.45,
                nominal_child_s: 5.2,
            },
            Workload::HostileQ4 => Spec {
                rounds: 400,
                target: 0.80,
                floor: 0.75,
                nominal_child_s: 3.1,
            },
        }
    }

    /// The upload codec the workload's clients use (`NoCompression`
    /// stands for the dense wire format in the codec probes; the run
    /// itself configures no codec for dense uploads).
    pub fn codec(self) -> Arc<dyn Compressor> {
        match self {
            Workload::CnnCifar => Arc::new(NoCompression),
            Workload::FleetQ8 => Arc::new(Uniform8Bit),
            Workload::HostileQ4 => Arc::new(Stochastic4Bit),
        }
    }

    /// Synthesizes and partitions the workload's data (the
    /// `setup.data_s` part of set-up).
    pub fn data(self, seed: u64) -> FederatedDataset {
        let mut rng = Prng::seed_from_u64(seed ^ DATA_SALT);
        let (data, clients) = match self {
            Workload::CnnCifar => {
                let spec = vision::VisionSpec::cifar10_like().with_sizes(1600, 500);
                (vision::generate(&spec, &mut rng), 8)
            }
            Workload::FleetQ8 => {
                let spec = tabular::TabularSpec {
                    name: "fleet".into(),
                    features: 512,
                    informative: 256,
                    classes: 10,
                    train_n: 3200,
                    test_n: 1000,
                    separation: 0.5,
                    label_noise: 0.05,
                };
                (tabular::generate(&spec, &mut rng), 64)
            }
            Workload::HostileQ4 => {
                let spec = tabular::TabularSpec::adult_like().with_sizes(6000, 1000);
                (tabular::generate(&spec, &mut rng), 200)
            }
        };
        let shards = match self {
            // The compute-bound control trains on IID shards: a
            // Dirichlet split makes its short run's convergence swing by
            // whole rounds from seed to seed.
            Workload::CnnCifar => partition::iid(data.train.labels(), clients, &mut rng),
            _ => partition::dirichlet(data.train.labels(), clients, 0.5, &mut rng),
        };
        FederatedDataset::from_partition(data.train, data.test, &shards)
    }

    /// Builds the model, TACO and the run configuration around `fed`.
    pub fn parts(self, fed: FederatedDataset, seed: u64) -> Parts {
        let mut rng = Prng::seed_from_u64(seed ^ MODEL_SALT);
        let n = fed.num_clients();
        let rounds = self.spec().rounds;
        let (model, hyper): (Box<dyn Model>, HyperParams) = match self {
            Workload::CnnCifar => (
                Box::new(PaperCnn::for_image(3, 32, 10, &mut rng)),
                HyperParams::new(n, 10, 0.1, 16),
            ),
            Workload::FleetQ8 => (
                Box::new(Mlp::new(512, &[384], 10, &mut rng)),
                HyperParams::new(n, 2, 0.1, 16),
            ),
            Workload::HostileQ4 => (
                Box::new(Mlp::paper_adult(14, 2, &mut rng)),
                HyperParams::new(n, 10, 0.05, 16),
            ),
        };
        let base = SimConfig::new(hyper, rounds, seed);
        let config = match self {
            Workload::CnnCifar => base.with_backend(BackendChoice::Sequential),
            Workload::FleetQ8 => base
                .with_backend(BackendChoice::Sharded { shards: 8 })
                .with_compressor(self.codec()),
            Workload::HostileQ4 => base
                .with_backend(BackendChoice::Sequential)
                .with_compressor(self.codec())
                .with_participation(0.2)
                .with_behaviors(hostile_behaviors(n))
                .with_fault_plan(
                    FaultPlan::new()
                        .with_dropouts(0.05)
                        .with_corruption(0.03, 1e9)
                        .with_stragglers(0.05, 4.0)
                        .with_deadline(20.0, 1.0),
                ),
        };
        let mut taco = TacoConfig::paper_default(rounds, hyper.local_steps);
        match self {
            // At 20 % participation a client is sampled about every fifth
            // round, so the paper's λ = T/5 strikes would never expel
            // anyone. Thirty strikes expels a few; ten would expel dozens
            // of honest clients too, and with them a seed-dependent share
            // of the training work.
            Workload::HostileQ4 => taco = taco.with_detection(taco.kappa, 30),
            // Every client is honest: with λ = T/5 ≈ 1 detection would
            // expel honest clients after one strike and shrink the
            // compute the workload exists to measure.
            _ => taco.detect_freeloaders = false,
        }
        let algorithm = Box::new(Taco::new(n, taco));
        Parts {
            fed,
            model,
            algorithm,
            config,
        }
    }
}

/// `hostile-q4`'s client mix: 5 % freeloaders, 3 % sign-flippers, 3 %
/// boosters and a 3 % colluding coalition; the rest are honest.
fn hostile_behaviors(n: usize) -> Vec<ClientBehavior> {
    let mix = [
        (ClientBehavior::Freeloader, 5),
        (ClientBehavior::SignFlip, 3),
        (ClientBehavior::Boost, 3),
        (ClientBehavior::Colluder { coalition: 1 }, 3),
    ];
    let mut out: Vec<ClientBehavior> = mix
        .into_iter()
        .flat_map(|(b, pct)| std::iter::repeat_n(b, n * pct / 100))
        .collect();
    out.resize(n, ClientBehavior::Honest);
    out
}
