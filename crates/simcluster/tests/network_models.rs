//! Network-model contract tests: bandwidth conservation under fair
//! sharing and degeneracy of the richer models to [`Constant`] when
//! their extra structure is inert.
//!
//! * **Conservation** — [`TopologyAware`] allocates max-min fair
//!   rates; at every admission instant the summed rates crossing each
//!   link must not exceed its capacity, on the uniform fabric (fair-
//!   shared NICs) and with an oversubscribed core alike.
//! * **Degeneracy** — with uniform links, no core bottleneck, and no
//!   concurrent flows, [`TopologyAware`] prices a transfer exactly like
//!   [`Constant`]: latency + bytes/bandwidth.

use asyncmr_model::SimTime;
use asyncmr_simcluster::{Constant, NetworkModel, TopologyAware};
use proptest::prelude::*;

const BW: f64 = 12.5e6; // 100 Mbit/s in bytes/s, the 2010 testbed NIC
const LAT: SimTime = SimTime::from_millis(1);

/// Conservation at one instant: no link's allocated rate exceeds its
/// capacity (beyond f64 summation noise).
fn assert_conserved(util: &[f64], caps: &[f64], ctx: &str) {
    assert_eq!(util.len(), caps.len());
    for (l, (&u, &c)) in util.iter().zip(caps).enumerate() {
        assert!(u <= c * (1.0 + 1e-9) + 1e-6, "{ctx}: link {l} over capacity ({u} > {c})");
        assert!(u >= 0.0, "{ctx}: link {l} negative rate {u}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uniform fabric (fair-shared NICs): Σ flow rates ≤ NIC capacity
    /// on every pipe, at every admission instant, for arbitrary flow
    /// batches.
    #[test]
    fn shared_bandwidth_conserves_capacity(
        flows in proptest::collection::vec(
            (0usize..6, 0usize..6, 1u64..64 << 20, 0u64..30_000_000),
            1..40,
        ),
    ) {
        let mut net = TopologyAware::uniform(6, BW, LAT);
        let caps = net.capacities();
        for (src, dst, bytes, start_us) in flows {
            let done = net.transfer(src, dst, bytes, SimTime::from_micros(start_us));
            prop_assert!(done >= SimTime::from_micros(start_us));
            assert_conserved(&net.utilization(), &caps, "shared");
        }
    }

    /// TopologyAware with a core bottleneck: conservation holds on the
    /// per-node links *and* the shared core.
    #[test]
    fn topology_aware_conserves_capacity_including_the_core(
        flows in proptest::collection::vec(
            (0usize..6, 0usize..6, 1u64..64 << 20, 0u64..30_000_000),
            1..40,
        ),
    ) {
        let mut net =
            TopologyAware::new(vec![(BW, BW); 6], Some(2.0 * BW), LAT);
        let caps = net.capacities();
        for (src, dst, bytes, start_us) in flows {
            let done = net.transfer(src, dst, bytes, SimTime::from_micros(start_us));
            prop_assert!(done >= SimTime::from_micros(start_us));
            assert_conserved(&net.utilization(), &caps, "topology");
        }
    }

    /// Degeneracy: uniform links, no core, and strictly sequential
    /// (uncontended) transfers — the fluid model must price each
    /// transfer like Constant, within the µs quantization of the fluid
    /// clock.
    #[test]
    fn uncontended_fluid_models_degenerate_to_constant(
        transfers in proptest::collection::vec(
            (0usize..4, 0usize..4, 1u64..32 << 20),
            1..12,
        ),
    ) {
        let mut constant = Constant::new(4, BW, LAT);
        let mut topo = TopologyAware::uniform(4, BW, LAT);
        // Serialize: each transfer starts after every model agrees the
        // previous one drained, so no two flows ever coexist.
        let mut at = SimTime::ZERO;
        for (src, dst, bytes) in transfers {
            let c = constant.transfer(src, dst, bytes, at);
            let t = topo.transfer(src, dst, bytes, at);
            let tol = SimTime::from_micros(2);
            prop_assert!(
                t.saturating_sub(c) <= tol && c.saturating_sub(t) <= tol,
                "topology {t} != constant {c} for {bytes}B uncontended"
            );
            at = c.max(t) + SimTime::from_millis(5);
        }
    }
}

#[test]
fn constant_estimate_equals_transfer_and_is_stateless() {
    let mut net = Constant::new(4, BW, LAT);
    let bytes = 10 << 20;
    let at = SimTime::from_secs(3);
    let est = net.estimate(0, 1, bytes, at);
    assert_eq!(net.transfer(0, 1, bytes, at), est, "constant commit == estimate");
    // Repeating the same transfer gives the same answer: no occupancy.
    assert_eq!(net.transfer(0, 1, bytes, at), est, "constant must be stateless");
    // Loopback is free.
    assert_eq!(net.transfer(2, 2, bytes, at), at);
    assert_eq!(net.estimate(2, 2, bytes, at), at);
}

#[test]
fn shared_bandwidth_contention_halves_the_pair_rate() {
    // Two flows on the same tx pipe: fair share halves each rate, so
    // the pair takes ~2x the solo time. (The analytical sanity anchor
    // behind the coarser "contention lengthens the job" assertions.)
    let solo = {
        let mut net = TopologyAware::uniform(4, BW, LAT);
        net.transfer(0, 1, 25_000_000, SimTime::ZERO)
    };
    let mut net = TopologyAware::uniform(4, BW, LAT);
    net.transfer(0, 1, 25_000_000, SimTime::ZERO);
    let contended = net.transfer(0, 2, 25_000_000, SimTime::ZERO);
    let ratio = contended.as_secs_f64() / solo.as_secs_f64();
    assert!(
        (1.8..2.2).contains(&ratio),
        "two flows on one NIC should take ~2x solo: ratio {ratio}"
    );
}

#[test]
fn core_bottleneck_bites_only_cross_rack_style_load() {
    // A core at half the aggregate edge capacity throttles many
    // concurrent pairs, while a single pair is edge-limited — the
    // distinction the core link adds over the uniform fabric.
    let mk = || TopologyAware::new(vec![(BW, BW); 8], Some(2.0 * BW), LAT);
    let single = mk().transfer(0, 1, 25_000_000, SimTime::ZERO);
    let mut congested = mk();
    // 8 disjoint pairs: aggregate demand 8*BW, core caps it at 2*BW.
    let mut last = SimTime::ZERO;
    for p in 0..4 {
        last = last.max(congested.transfer(p, p + 4, 25_000_000, SimTime::ZERO));
    }
    assert!(
        last.as_secs_f64() > single.as_secs_f64() * 1.5,
        "core bottleneck must slow concurrent pairs: {last} vs solo {single}"
    );
    // The same 4 pairs on the coreless uniform fabric are unthrottled:
    // disjoint up/down links, so each pair runs at full edge rate.
    let mut flat = TopologyAware::uniform(8, BW, LAT);
    let mut flat_last = SimTime::ZERO;
    for p in 0..4 {
        flat_last = flat_last.max(flat.transfer(p, p + 4, 25_000_000, SimTime::ZERO));
    }
    let tol = SimTime::from_micros(2);
    assert!(
        flat_last.saturating_sub(single) <= tol,
        "disjoint pairs without a core must stay edge-limited: {flat_last} vs {single}"
    );
}
