//! Integration tests for the analytic performance model vs the discrete-event
//! simulation of the schedules, and for the policy optimizer feeding the schedule
//! builder — the two halves of the system must agree on what they are modeling.

use moe_hardware::NodeSpec;
use moe_model::MoeModelConfig;
use moe_policy::{CostModel, Policy, PolicyOptimizer, SearchSpace, WorkloadShape};
use moe_schedule::{DecodeScheduleBuilder, ScheduleKind};
use moe_sim::{simulate, Lane, TaskKind};

#[test]
fn simulated_cgopipe_step_is_close_to_the_analytic_estimate() {
    // Eq. 12 models the per-layer latency as the max of the four resource times; the
    // simulated pipeline adds prologue/epilogue effects but must stay within a small
    // factor of the analytic estimate (otherwise one of the two is wrong).
    let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
    let policy = Policy::offload_default(256, 32);
    let workload = WorkloadShape::new(77, 128);
    let layers = 4u32;

    let analytic = cost
        .layer_decode_latency(&policy, &workload)
        .total
        .as_secs()
        * f64::from(layers);
    let simulated = DecodeScheduleBuilder::new(&cost, policy, workload)
        .with_layers(layers)
        .step_makespan(ScheduleKind::CgoPipe)
        .as_secs();
    let ratio = simulated / analytic;
    assert!(
        (0.8..1.8).contains(&ratio),
        "simulated {simulated:.4}s vs analytic {analytic:.4}s (ratio {ratio:.2})"
    );
}

#[test]
fn optimizer_policy_runs_through_every_schedule_without_errors() {
    let node = NodeSpec::t4_single();
    let model = MoeModelConfig::mixtral_8x7b();
    let workload = WorkloadShape::new(242, 50);
    let optimizer =
        PolicyOptimizer::new(node.clone(), model.clone()).with_search_space(SearchSpace::coarse());
    let policy = optimizer.search(&workload).unwrap().policy;
    let cost = CostModel::new(node, model);
    let builder = DecodeScheduleBuilder::new(&cost, policy, workload).with_layers(3);
    for kind in ScheduleKind::all() {
        let graph = builder.build(kind).unwrap();
        let result = simulate(&graph).unwrap();
        assert_eq!(result.timeline.len(), graph.len());
        assert!(result.makespan.as_secs() > 0.0);
    }
}

#[test]
fn cgopipe_weight_traffic_matches_the_streamed_layer_bytes() {
    // The total weight-transfer time on the H2D lane must equal the time to stream
    // (layers − the prologue-free remainder) × (1 − r_w) of each layer's weights.
    let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
    let mut policy = Policy::offload_default(128, 32);
    policy.weights_gpu_ratio = 0.25;
    let workload = WorkloadShape::new(77, 64);
    let layers = 3u32;
    let builder = DecodeScheduleBuilder::new(&cost, policy, workload).with_layers(layers);
    let graph = builder.build(ScheduleKind::CgoPipe).unwrap();
    let result = simulate(&graph).unwrap();

    let weight_time = result.kind_time(TaskKind::WeightTransfer).as_secs();
    let per_layer = cost
        .weight_transfer(cost.streamed_layer_bytes(&policy))
        .as_secs();
    let expected = per_layer * f64::from(layers);
    let rel = (weight_time - expected).abs() / expected;
    assert!(
        rel < 0.05,
        "weight transfer time {weight_time:.4}s vs expected {expected:.4}s"
    );
}

#[test]
fn gpu_is_busier_under_cgopipe_than_under_flexgen_c() {
    let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
    let policy = Policy::offload_default(256, 32);
    let workload = WorkloadShape::new(418, 128);
    let builder = DecodeScheduleBuilder::new(&cost, policy, workload).with_layers(4);
    let utilization = |kind| {
        let r = simulate(&builder.build(kind).unwrap()).unwrap();
        r.lane(Lane::GpuCompute).utilization
    };
    let cgo = utilization(ScheduleKind::CgoPipe);
    let s3 = utilization(ScheduleKind::FlexGenCpuAttention);
    assert!(
        cgo >= s3 - 1e-9,
        "CGOPipe GPU utilization {cgo:.3} must not be below FlexGen(c) {s3:.3}"
    );
}

#[test]
fn attention_placement_decision_matches_the_hrm_analysis() {
    // The optimizer's A_g choice must agree with the HRM turning-point analysis: on
    // the memory-constrained T4/L4 nodes the attention intensity (≈4 FLOPs/byte for
    // f16 GQA) is far below P1, so attention belongs on the CPU.
    use moe_hrm::HierarchicalRoofline;
    use moe_model::LayerOps;
    for node in [NodeSpec::t4_single(), NodeSpec::l4_single()] {
        let hrm = HierarchicalRoofline::from_node(&node);
        let p1 = hrm.turning_point_p1(hrm.gpu(), hrm.cpu()).unwrap();
        let attention_intensity = LayerOps::new(MoeModelConfig::mixtral_8x7b())
            .attention_core_decode(64, 512)
            .operational_intensity();
        assert!(attention_intensity < p1);

        let optimizer = PolicyOptimizer::new(node, MoeModelConfig::mixtral_8x7b());
        let best = optimizer
            .search(&WorkloadShape::new(77, 128))
            .unwrap()
            .policy;
        assert!(
            !best.attention_on_gpu,
            "HRM analysis and optimizer must agree"
        );
    }
}
