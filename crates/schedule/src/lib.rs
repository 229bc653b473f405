//! Pipeline schedules for the decode stage: CGOPipe (Algorithm 1) and the baseline
//! orderings of Fig. 6.
//!
//! Each schedule is written once and walked in one of two ways.
//! [`DecodeScheduleBuilder::build`] emits it as a task graph for the
//! discrete-event simulator, which gives the Fig. 6 timelines and lane
//! statistics. [`DecodeScheduleBuilder::step_makespan`] evaluates it in one
//! pass with four lane clocks and returns only the makespan. No graph is
//! built and no labels are formatted. Both give the same makespan bit for
//! bit, because every lane runs its tasks in insertion order and every
//! dependency points to an earlier task. A property test checks this against
//! `moe_sim::simulate` for every schedule kind.
//!
//! # Examples
//!
//! ```
//! use moe_hardware::NodeSpec;
//! use moe_model::MoeModelConfig;
//! use moe_policy::{CostModel, Policy, WorkloadShape};
//! use moe_schedule::{DecodeScheduleBuilder, ScheduleKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
//! let builder = DecodeScheduleBuilder::new(
//!     &cost,
//!     Policy::offload_default(256, 32),
//!     WorkloadShape::new(77, 128),
//! )
//! .with_layers(2);
//! let cgo = builder.step_makespan(ScheduleKind::CgoPipe);
//! let flexgen = builder.step_makespan(ScheduleKind::FlexGenGpuAttention);
//! assert!(cgo.as_secs() <= flexgen.as_secs());
//! // The one-pass makespan is the simulated one.
//! let graph = builder.build(ScheduleKind::CgoPipe)?;
//! assert_eq!(cgo, moe_sim::simulate(&graph)?.makespan);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;

pub use builder::{DecodeScheduleBuilder, ScheduleKind};

#[cfg(test)]
mod proptests {
    use super::*;
    use moe_hardware::NodeSpec;
    use moe_model::MoeModelConfig;
    use moe_policy::{CostModel, Policy, WorkloadShape};
    use moe_sim::{simulate, Lane};
    use proptest::prelude::*;

    /// A GPU residency ratio: all on the CPU, a random fraction, or all on the
    /// GPU (which removes the weight or KV transfer tasks entirely).
    fn residency() -> impl Strategy<Value = f64> {
        (0u8..3, 0.0f64..1.0).prop_map(|(pick, fraction)| match pick {
            0 => 0.0,
            1 => fraction,
            _ => 1.0,
        })
    }

    /// Per-micro-batch occupancies and mean contexts for 1–16 micro-batches.
    fn loads() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
        (1usize..=16).prop_flat_map(|n_ub| {
            (
                proptest::collection::vec(1u64..=64, n_ub),
                proptest::collection::vec(1u64..=4096, n_ub),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(800))]

        /// The one-pass lane-clock makespan is the discrete-event makespan, bit
        /// for bit, for every schedule kind.
        #[test]
        fn step_makespan_matches_the_simulated_makespan_bit_for_bit(
            a100 in any::<bool>(),
            placement in (any::<bool>(), any::<bool>()),
            ratios in (residency(), residency()),
            (occupancy, contexts) in loads(),
            overrides in (any::<bool>(), any::<bool>()),
            shape in (1u64..2048, 1u64..512, 1u32..=32),
        ) {
            let node = if a100 {
                NodeSpec::a100_case_study(300.0, 4.0)
            } else {
                NodeSpec::t4_single()
            };
            let cost = CostModel::new(node, MoeModelConfig::mixtral_8x7b());
            let (attention_on_gpu, ffn_on_gpu) = placement;
            let (weights_gpu_ratio, kv_gpu_ratio) = ratios;
            let (explicit_tokens, explicit_contexts) = overrides;
            let (prompt, gen, layers) = shape;
            let policy = Policy {
                batch_size: occupancy.iter().sum(),
                micro_batch_size: occupancy.iter().copied().max().unwrap_or(1),
                attention_on_gpu,
                ffn_on_gpu,
                weights_gpu_ratio,
                kv_gpu_ratio,
            };
            let mut builder = DecodeScheduleBuilder::new(&cost, policy, WorkloadShape::new(prompt, gen))
                .with_layers(layers);
            if explicit_tokens {
                builder = builder.with_micro_batch_tokens(&occupancy);
                if explicit_contexts {
                    builder = builder.with_micro_batch_contexts(&contexts);
                }
            }
            for kind in ScheduleKind::all() {
                let oracle = simulate(&builder.build(kind).unwrap()).unwrap().makespan;
                let fast = builder.step_makespan(kind);
                prop_assert_eq!(
                    fast.as_secs().to_bits(),
                    oracle.as_secs().to_bits(),
                    "{}: one pass {} vs simulated {}",
                    kind.name(),
                    fast,
                    oracle
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn every_schedule_completes_for_arbitrary_policies(
            mu in 1u64..96,
            n_ub in 1u64..12,
            prompt in 1u64..1024,
            gen in 1u64..256,
            layers in 1u32..5,
        ) {
            let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
            let policy = Policy::offload_default(mu * n_ub, mu);
            let workload = WorkloadShape::new(prompt, gen);
            let builder = DecodeScheduleBuilder::new(&cost, policy, workload).with_layers(layers);
            for kind in ScheduleKind::all() {
                let graph = builder.build(kind).unwrap();
                let result = simulate(&graph).unwrap();
                prop_assert!(result.makespan.as_secs() > 0.0);
                prop_assert_eq!(result.timeline.len(), graph.len());
            }
        }

        #[test]
        fn cgopipe_never_loses_to_unpaged_cpu_attention_schedules(
            mu in 8u64..64,
            n_ub in 2u64..10,
            prompt in 16u64..512,
        ) {
            let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
            let policy = Policy::offload_default(mu * n_ub, mu);
            let workload = WorkloadShape::new(prompt, 64);
            let builder = DecodeScheduleBuilder::new(&cost, policy, workload).with_layers(3);
            let cgo = builder.step_makespan(ScheduleKind::CgoPipe);
            let s2 = builder.step_makespan(ScheduleKind::FastDecodeOverlap);
            let s3 = builder.step_makespan(ScheduleKind::FlexGenCpuAttention);
            prop_assert!(cgo.as_secs() <= s2.as_secs() * 1.01);
            prop_assert!(cgo.as_secs() <= s3.as_secs() * 1.01);
        }

        #[test]
        fn makespan_at_least_busiest_lane(
            mu in 4u64..64,
            n_ub in 1u64..8,
            layers in 1u32..4,
        ) {
            let cost = CostModel::new(NodeSpec::l4_single(), MoeModelConfig::mixtral_8x7b());
            let policy = Policy::offload_default(mu * n_ub, mu);
            let workload = WorkloadShape::new(242, 50);
            let builder = DecodeScheduleBuilder::new(&cost, policy, workload).with_layers(layers);
            for kind in ScheduleKind::all() {
                let graph = builder.build(kind).unwrap();
                let result = simulate(&graph).unwrap();
                for lane in Lane::all() {
                    prop_assert!(result.lane(lane).busy.as_secs() <= result.makespan.as_secs() + 1e-9);
                }
            }
        }
    }
}
