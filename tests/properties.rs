//! Property-based tests over the core invariants, with randomized
//! latencies λ = p/q, processor counts and message counts.

use postal::algos::{
    cascade, run_bcast, run_dtree, run_pack, run_pipeline, run_repeat, BroadcastTree, CascadeSend,
    FibTable, Orientation,
};
use postal::model::{bounds, runtimes, GenFib, Latency, Time};
use proptest::prelude::*;

/// Random λ = p/q with 1 ≤ λ ≤ 16 and a small lattice (q ≤ 6).
fn arb_latency() -> impl Strategy<Value = Latency> {
    (1i128..=6, 1i128..=16).prop_map(|(q, mult)| {
        // p between q and 16q keeps 1 ≤ λ ≤ 16.
        Latency::from_ratio(q * mult, q)
    })
}

/// Richer λ: arbitrary p/q in lowest terms with λ ≥ 1.
fn arb_latency_fine() -> impl Strategy<Value = Latency> {
    (1i128..=8, 0i128..=40).prop_map(|(q, extra)| Latency::from_ratio(q + extra, q))
}

/// The cascade unrolled over a `GenFib` memo, one split at a time: the
/// oracle the shared table's walk must repeat send for send.
fn memo_cascade(fib: &GenFib, size: u64, orientation: Orientation) -> Vec<CascadeSend> {
    let mut sends = Vec::new();
    let mut s = size as u128;
    while s > 1 {
        let j = fib.bcast_split(s);
        let (offset, delegated, kept) = match orientation {
            Orientation::Standard => (j, s - j, j),
            Orientation::Swapped => (s - j, j, s - j),
        };
        sends.push(CascadeSend {
            offset: offset as u64,
            size: delegated as u64,
        });
        s = kept;
    }
    sends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fib_is_monotone_and_claim1_holds(lam in arb_latency_fine(), n in 1u128..5000) {
        let g = GenFib::new(lam);
        let f = g.index_ticks(n);
        // Claim 1(3): F(f(n)) ≥ n.
        prop_assert!(g.value_at_ticks(f) >= n);
        // Claim 1(4): F(f(n) − ε) < n.
        if f > 0 {
            prop_assert!(g.value_at_ticks(f - 1) < n);
        }
        // Monotonicity in n.
        if n > 1 {
            prop_assert!(g.index_ticks(n - 1) <= f);
        }
    }

    #[test]
    fn theorem7_bounds_hold(lam in arb_latency_fine(), n in 1u128..100_000) {
        let g = GenFib::new(lam);
        let f = g.index(n).to_f64();
        prop_assert!(bounds::index_lower_bound(n, lam) <= f + 1e-6);
        prop_assert!(f <= bounds::index_upper_bound(n, lam) + 1e-6);
    }

    #[test]
    fn fib_value_bounds_hold(lam in arb_latency(), t in 0i128..200) {
        let g = GenFib::new(lam);
        let tt = Time::from_int(t);
        let v = g.value(tt);
        prop_assert!(bounds::fib_lower_bound(tt, lam) <= v);
        prop_assert!(v <= bounds::fib_upper_bound(tt, lam));
    }

    #[test]
    fn cascade_partitions_range(lam in arb_latency_fine(), size in 1u64..2000,
                                swapped in any::<bool>()) {
        let table = FibTable::new(lam, size);
        let orientation = if swapped { Orientation::Swapped } else { Orientation::Standard };
        let sends: Vec<CascadeSend> = cascade(&table, size, orientation).collect();
        prop_assert!(postal::algos::cascade::covers_range(&sends, size));
    }

    #[test]
    fn table_walk_is_the_genfib_cascade(lam in arb_latency_fine(), size in 1u64..2000) {
        let fib = GenFib::new(lam);
        // A run's table is built for its n; a cascade asks it for any
        // range up to n, so a table larger than the range must walk the
        // same sends.
        let tables = [FibTable::new(lam, size), FibTable::new(lam, 2 * size)];
        for orientation in [Orientation::Standard, Orientation::Swapped] {
            let oracle = memo_cascade(&fib, size, orientation);
            for table in &tables {
                let walked: Vec<CascadeSend> = cascade(table, size, orientation).collect();
                prop_assert_eq!(
                    &walked,
                    &oracle,
                    "λ={} size={} {:?}, table built for {}",
                    lam,
                    size,
                    orientation,
                    table.size()
                );
            }
        }
    }

    #[test]
    fn bcast_simulation_equals_theorem6(lam in arb_latency(), n in 1usize..200) {
        let report = run_bcast(n, lam);
        prop_assert!(report.violations.is_empty());
        prop_assert_eq!(report.completion, runtimes::bcast_time(n as u128, lam));
        prop_assert_eq!(report.messages(), n - 1);
    }

    #[test]
    fn tree_simulation_agreement(lam in arb_latency(), n in 1u64..150) {
        let tree = BroadcastTree::build(n, lam);
        prop_assert_eq!(tree.root.size(), n as usize);
        prop_assert_eq!(tree.completion(), runtimes::bcast_time(n as u128, lam));
    }

    #[test]
    fn repeat_matches_lemma10(lam in arb_latency(), n in 2usize..60, m in 1u32..8) {
        let r = run_repeat(n, m, lam);
        prop_assert!(r.verify().is_ok());
        prop_assert_eq!(r.completion(), runtimes::repeat_time(n as u128, m as u64, lam));
    }

    #[test]
    fn pack_matches_lemma12(lam in arb_latency(), n in 2usize..60, m in 1u32..8) {
        let r = run_pack(n, m, lam);
        prop_assert!(r.verify().is_ok());
        prop_assert_eq!(r.completion(), runtimes::pack_time(n as u128, m as u64, lam));
    }

    #[test]
    fn pipeline_matches_lemmas14_16(lam in arb_latency(), n in 2usize..60, m in 1u32..12) {
        let r = run_pipeline(n, m, lam);
        prop_assert!(r.verify().is_ok());
        prop_assert_eq!(r.completion(), runtimes::pipeline_time(n as u128, m as u64, lam));
    }

    #[test]
    fn dtree_within_lemma18(lam in arb_latency(), n in 2usize..50, m in 1u32..6,
                            d_seed in 1u64..50) {
        let d = 1 + d_seed % (n as u64 - 1).max(1);
        let d = d.min(n as u64 - 1);
        let r = run_dtree(n, m, lam, d);
        prop_assert!(r.verify().is_ok());
        prop_assert!(
            r.completion() <= runtimes::dtree_time_bound(n as u128, m as u64, lam, d as u128)
        );
    }

    #[test]
    fn lower_bound_dominated_by_everything(lam in arb_latency(), n in 2usize..60, m in 1u32..8) {
        let lb = runtimes::multi_lower_bound(n as u128, m as u64, lam);
        prop_assert!(runtimes::repeat_time(n as u128, m as u64, lam) >= lb);
        prop_assert!(runtimes::pack_time(n as u128, m as u64, lam) >= lb);
        prop_assert!(runtimes::pipeline_time(n as u128, m as u64, lam) >= lb);
        prop_assert!(runtimes::line_time(n as u128, m as u64, lam) >= lb);
        prop_assert!(runtimes::star_time(n as u128, m as u64, lam) >= lb);
    }

    #[test]
    fn combine_is_exact_reversal(lam in arb_latency(), n in 1usize..80, seed in any::<u64>()) {
        let values: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed % 1000 + 1)).collect();
        let outcome = postal::algos::ext::combine::run_combine(&values, lam);
        prop_assert!(outcome.report.violations.is_empty());
        prop_assert_eq!(outcome.root_total, values.iter().sum::<u64>());
        let expected = if n == 1 { Time::ZERO } else { runtimes::bcast_time(n as u128, lam) };
        prop_assert_eq!(outcome.report.completion, expected);
    }

    #[test]
    fn gossip_completes(lam in arb_latency(), n in 1usize..40) {
        let values: Vec<u64> = (0..n as u64).map(|i| 7 * i + 1).collect();
        let outcome = postal::algos::ext::gossip::run_gossip(&values, lam);
        prop_assert!(outcome.report.violations.is_empty());
        prop_assert!(outcome.complete(&values));
    }

    #[test]
    fn tree_schedule_flood_triangle(lam in arb_latency(), n in 1u64..120) {
        // Three independent derivations of the optimal broadcast must
        // agree: the Fibonacci tree, its extracted schedule (validated
        // and replayed on the engine), and the greedy flood of Lemma 5.
        use postal::algos::{flood_schedule, replay, ToSchedule};
        use postal::verify::{is_clean, lint_schedule, LintOptions, Severity};
        let tree = BroadcastTree::build(n, lam);
        let schedule = tree.to_schedule();
        let diags = lint_schedule(&schedule, &LintOptions::default());
        prop_assert!(is_clean(&diags, Severity::Error), "{:?}", diags);
        let replayed = replay(&schedule);
        prop_assert!(replayed.violations.is_empty());
        prop_assert_eq!(replayed.completion, schedule.completion());
        let flood = flood_schedule(n, lam);
        let diags = lint_schedule(&flood.schedule, &LintOptions::default());
        prop_assert!(is_clean(&diags, Severity::Error), "{:?}", diags);
        prop_assert_eq!(flood.completion(), tree.completion());
        prop_assert!(flood.informed_curve_matches(n));
    }

    #[test]
    fn allreduce_is_twice_bcast(lam in arb_latency(), n in 1usize..60, seed in any::<u32>()) {
        use postal::algos::ext::allreduce::{allreduce_time, run_allreduce};
        let values: Vec<u64> = (0..n as u64).map(|i| (i + seed as u64) % 977).collect();
        let expected: u64 = values.iter().sum();
        let o = run_allreduce(&values, lam);
        prop_assert!(o.report.violations.is_empty());
        prop_assert_eq!(o.report.completion, allreduce_time(n as u128, lam));
        for t in &o.totals {
            prop_assert_eq!(*t, Some(expected));
        }
    }

    #[test]
    fn adaptive_delivers_under_random_profiles(
        n in 2usize..80,
        steps in proptest::collection::vec((1i128..12, 1i128..30), 1..5),
    ) {
        use postal::sim::TimeVarying;
        // Build a strictly increasing profile from random (gap, λ) pairs.
        let mut t = postal::model::Time::ZERO;
        let mut profile = Vec::new();
        for (i, (gap, lam)) in steps.into_iter().enumerate() {
            if i > 0 {
                t += postal::model::Time::from_int(gap);
            }
            profile.push((t, postal::model::Latency::from_int(lam)));
        }
        let profile = TimeVarying::new(profile);
        let report = postal::algos::ext::adaptive::run_adaptive(n, &profile);
        prop_assert!(postal::algos::ext::adaptive::delivered_everywhere(&report, n));
    }

    #[test]
    fn bcast_survives_random_jitter(n in 2usize..60, seed in any::<u64>(),
                                    extra in 0u32..8) {
        use postal::sim::{Jittered, PortMode, Simulation};
        let base = postal::model::Latency::from_int(2);
        let model = Jittered::new(base, extra, seed);
        let report = Simulation::new(n, &model)
            .port_mode(PortMode::Queued)
            .run(postal::algos::bcast_programs(n, base))
            .unwrap();
        for i in 1..n {
            prop_assert_eq!(
                report.trace.received_by(postal::sim::ProcId::from(i)).count(),
                1
            );
        }
        // Completion bounded by optimum and optimum stretched by the
        // worst-case extra latency per hop (depth ≤ f_λ(n)/λ ≤ f).
        let f = postal::model::runtimes::bcast_time(n as u128, base);
        prop_assert!(report.completion >= f);
    }

    #[test]
    fn fault_free_plan_changes_nothing(lam in arb_latency(), n in 1usize..60) {
        use postal::sim::{FaultPlan, Simulation, Uniform};
        let model = Uniform(lam);
        let clean = postal::algos::run_bcast(n, lam);
        let with_empty_plan = Simulation::new(n, &model)
            .faults(FaultPlan::none())
            .run(postal::algos::bcast_programs(n, lam))
            .unwrap();
        prop_assert_eq!(clean.completion, with_empty_plan.completion);
        prop_assert_eq!(clean.messages(), with_empty_plan.messages());
    }

    #[test]
    fn any_single_drop_loses_a_contiguous_nonempty_set(
        lam in arb_latency(), n in 2usize..40, drop_seed in any::<u64>()
    ) {
        use postal::sim::{FaultPlan, Simulation, Uniform};
        let model = Uniform(lam);
        let seq = drop_seed % (n as u64 - 1);
        let report = Simulation::new(n, &model)
            .faults(FaultPlan::none().dropping(seq))
            .run(postal::algos::bcast_programs(n, lam))
            .unwrap();
        let first = report.trace.first_receipt_times(n);
        let lost: Vec<usize> = (1..n).filter(|&i| first[i].is_none()).collect();
        // Exactly one subtree goes dark: nonempty, and BCAST delegates
        // contiguous ranges, so the lost set is a contiguous run.
        prop_assert!(!lost.is_empty());
        for w in lost.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn claim1_holds_for_arbitrary_step_functions(
        q in 1i128..5,
        increments in proptest::collection::vec(0u128..4, 1..60),
    ) {
        use postal::model::step_fn::{check_claim1, TableStep};
        // Build a random nondecreasing table starting at 1.
        let mut values = Vec::with_capacity(increments.len());
        let mut v: u128 = 1;
        for inc in increments {
            v += inc;
            values.push(v);
        }
        let g = TableStep::new(q, values);
        prop_assert_eq!(check_claim1(&g, 100, 200), None);
    }

    #[test]
    fn corollaries_dominate_exact_times(lam in arb_latency(), n in 2u128..200, m in 1u64..16) {
        use postal::model::corollaries;
        prop_assert!(
            runtimes::repeat_time(n, m, lam).to_f64()
                <= corollaries::repeat_upper_bound(n, m, lam) + 1e-9
        );
        prop_assert!(
            runtimes::pack_time(n, m, lam).to_f64()
                <= corollaries::pack_upper_bound(n, m, lam) + 1e-9
        );
        let m_ratio = postal::model::Ratio::from_int(m as i128);
        if m_ratio <= lam.value() {
            prop_assert!(
                runtimes::pipeline1_time(n, m, lam).unwrap().to_f64()
                    <= corollaries::pipeline1_upper_bound(n, m, lam) + 1e-9
            );
        }
        if m_ratio >= lam.value() {
            prop_assert!(
                runtimes::pipeline2_time(n, m, lam).unwrap().to_f64()
                    <= corollaries::pipeline2_upper_bound(n, m, lam) + 1e-9
            );
        }
    }

    #[test]
    fn ratio_arithmetic_is_exact(a in -1000i128..1000, b in 1i128..1000,
                                 c in -1000i128..1000, d in 1i128..1000) {
        use postal::model::Ratio;
        let x = Ratio::new(a, b);
        let y = Ratio::new(c, d);
        // Field axioms on a random sample.
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!((x + y) - y, x);
        prop_assert_eq!(x * y, y * x);
        if !y.is_zero() {
            prop_assert_eq!((x / y) * y, x);
        }
        // Ordering consistency with f64 (coarse).
        if x < y {
            prop_assert!(x.to_f64() <= y.to_f64() + 1e-9);
        }
    }

    #[test]
    fn latency_parse_roundtrip(p in 1i128..500, q in 1i128..60) {
        let lam = Latency::from_ratio(p * q.max(1), q); // ≥ 1 by construction
        let s = lam.to_string();
        let parsed: Latency = s.parse().unwrap();
        prop_assert_eq!(parsed, lam);
    }
}
