//! Property-based tests over the whole stack: protocol invariants that
//! must hold for *any* valid configuration, station count and seed.

use plc::prelude::*;
use plc_analysis::meanfield::stage_quantities;
use plc_core::config::DC_DISABLED;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy: a valid CSMA configuration with 1–5 stages, windows that are
/// powers of two in 2..=256, and deferral values in 0..=31 or disabled.
fn config_strategy() -> impl Strategy<Value = CsmaConfig> {
    let stage = (1u32..=8, prop_oneof![Just(DC_DISABLED), 0u32..=31])
        .prop_map(|(wexp, dc)| (1u32 << wexp, dc));
    proptest::collection::vec(stage, 1..=5).prop_map(|stages| {
        let cw: Vec<u32> = stages.iter().map(|&(w, _)| w).collect();
        let dc: Vec<u32> = stages.iter().map(|&(_, d)| d).collect();
        CsmaConfig::from_vectors(&cw, &dc).expect("strategy yields valid configs")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The 1901 backoff process never violates its counter invariants, no
    /// matter how the channel behaves.
    #[test]
    fn backoff_invariants_hold(cfg in config_strategy(), seed in any::<u64>(), script in proptest::collection::vec(0u8..4, 1..300)) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = cfg.num_stages();
        let mut b = Backoff1901::new(cfg, &mut rng);
        for &step in &script {
            if b.wants_tx() {
                if step % 2 == 0 { b.on_tx_success(&mut rng); } else { b.on_tx_failure(&mut rng); }
            } else {
                match step {
                    0 | 1 => b.on_idle_slot(&mut rng),
                    _ => b.on_busy(&mut rng),
                }
            }
            prop_assert!(b.stage() < m, "stage within table");
            prop_assert!(b.bc() < b.cw(), "BC below the window in effect");
            let snap = b.snapshot();
            prop_assert_eq!(snap.cw, b.cw());
            if let Some(dc) = snap.dc {
                prop_assert!(dc <= 1 << 16, "sane DC");
            }
        }
    }

    /// Simulation accounting is self-consistent for any station count,
    /// config and seed: time decomposes, counters balance, probabilities
    /// stay in range.
    #[test]
    fn simulation_accounting_is_consistent(
        cfg in config_strategy(),
        n in 1usize..7,
        seed in any::<u64>(),
    ) {
        let report = Simulation::ieee1901(n)
            .config(cfg)
            .horizon_us(3.0e5)
            .seed(seed)
            .run();
        let m = &report.metrics;

        // Time decomposition.
        let accounted = m.time_idle + m.time_success + m.time_collision + m.time_prs;
        prop_assert!((accounted.as_micros() - m.elapsed.as_micros()).abs() < 1e-6);

        // Counter balance.
        let per_station_succ: u64 = m.per_station.iter().map(|s| s.successes).sum();
        prop_assert_eq!(per_station_succ, m.successes);
        let per_station_coll: u64 = m.per_station.iter().map(|s| s.collisions).sum();
        prop_assert_eq!(per_station_coll, m.collided_tx);
        for s in &m.per_station {
            prop_assert_eq!(s.attempts, s.successes + s.collisions);
        }

        // Ranges.
        let p = report.collision_probability;
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(report.norm_throughput >= 0.0 && report.norm_throughput <= 1.0);
        if n == 1 {
            prop_assert_eq!(m.collision_events, 0, "a lone station cannot collide");
        }
        let j = report.jain_fairness;
        if m.successes > 0 {
            prop_assert!(j >= 1.0 / n as f64 - 1e-9 && j <= 1.0 + 1e-9);
        }
    }

    /// The analytical fixed point exists, the solver reaches it, and it
    /// produces probabilities in range for any config and N. It need not
    /// be unique: tables whose windows shrink can have several fixed
    /// points, and the solve returns one of them (see the
    /// `plc_analysis::meanfield` docs).
    #[test]
    fn fixed_point_well_defined(cfg in config_strategy(), n in 1usize..20) {
        let sol = MeanFieldModel::single(cfg, n).solve().expect("solver converges");
        prop_assert!(sol.diagnostics.residual <= 1e-12);
        let fp = &sol.classes[0];
        prop_assert!(fp.tau > 0.0 && fp.tau <= 1.0, "tau = {}", fp.tau);
        prop_assert!((0.0..=1.0).contains(&fp.collision_probability));
        // Stage attempt probabilities are probabilities.
        for &x in &fp.stage_attempt_probs {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&x));
        }
        // Throughput from the same fixed point is a valid share.
        let s = sol.throughput(&MacTiming::paper_default());
        prop_assert!((0.0..=1.0).contains(&s), "S = {s}");
    }

    /// Per-stage quantities are coherent: attempt probability in (0,1],
    /// expected backoff slots below the window, both monotone in p.
    #[test]
    fn stage_quantities_coherent(
        wexp in 1u32..=8,
        d in prop_oneof![Just(DC_DISABLED), 0u32..=31],
        p in 0.0f64..=1.0,
    ) {
        let w = 1u32 << wexp;
        let q = stage_quantities(w, d, p);
        prop_assert!(q.attempt_prob > 0.0 && q.attempt_prob <= 1.0);
        prop_assert!(q.backoff_slots >= 0.0);
        prop_assert!(q.backoff_slots <= (w as f64 - 1.0) / 2.0 + 1e-9);
        // Against a slightly busier channel, both can only shrink.
        if p < 0.99 {
            let q2 = stage_quantities(w, d, (p + 0.01).min(1.0));
            prop_assert!(q2.attempt_prob <= q.attempt_prob + 1e-12);
            prop_assert!(q2.backoff_slots <= q.backoff_slots + 1e-12);
        }
    }

    /// The emulated testbed's measured counters always reconcile with the
    /// §3.2 arithmetic.
    #[test]
    fn testbed_counters_reconcile(n in 1usize..5, seed in any::<u64>()) {
        let out = CollisionExperiment {
            duration: Microseconds::from_secs(2.0),
            ..CollisionExperiment::paper(n, seed)
        }
        .run()
        .unwrap();
        let sum_a: u64 = out.per_station.iter().map(|s| s.acked).sum();
        let sum_c: u64 = out.per_station.iter().map(|s| s.collided).sum();
        prop_assert_eq!(sum_a, out.sum_acked);
        prop_assert_eq!(sum_c, out.sum_collided);
        prop_assert!(out.sum_collided <= out.sum_acked, "Cᵢ ⊆ Aᵢ by selective-ACK semantics");
        prop_assert!((0.0..=1.0).contains(&out.collision_probability));
    }
}
