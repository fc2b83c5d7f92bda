//! Experiment X5: the Section 5 gap — Lemma 8's lower bound vs the true
//! (lattice) optimum vs the best Section 4 algorithm, on instances small
//! enough for exhaustive search.

use crate::table::{fmt_time, Table};
use postal_model::optimal::{optimal_multi_broadcast_with, OrderPolicy, SearchResult};
use postal_model::{runtimes, Latency, Time};

/// Best closed-form Section-4 algorithm time for an instance.
pub fn best_section4(n: u128, m: u64, lam: Latency) -> (&'static str, Time) {
    [
        ("REPEAT", runtimes::repeat_time(n, m, lam)),
        ("PACK", runtimes::pack_time(n, m, lam)),
        ("PIPELINE", runtimes::pipeline_time(n, m, lam)),
        ("LINE", runtimes::line_time(n, m, lam)),
        ("STAR", runtimes::star_time(n, m, lam)),
    ]
    .into_iter()
    .min_by_key(|&(_, t)| t)
    .expect("nonempty candidate set")
}

/// The instances searched exhaustively (kept small; the search is
/// exponential).
pub fn instances() -> Vec<(usize, u32, Latency)> {
    vec![
        (2, 3, Latency::from_int(2)),
        (3, 2, Latency::TELEPHONE),
        (3, 2, Latency::from_int(2)),
        (3, 2, Latency::from_ratio(5, 2)),
        (3, 3, Latency::TELEPHONE),
        (3, 3, Latency::from_int(2)),
        (4, 2, Latency::TELEPHONE),
        (4, 2, Latency::from_int(2)),
        (4, 3, Latency::TELEPHONE),
        (5, 2, Latency::TELEPHONE),
    ]
}

/// Builds the gap table. Every row asserts
/// `Lemma 8 ≤ optimum ≤ best algorithm`.
pub fn gap_table(state_budget: usize) -> Table {
    let mut table = Table::new(
        "X5: Lemma 8 LB vs exact optima (any order / order-preserving) vs best §4 algorithm",
        &[
            "n",
            "m",
            "λ",
            "Lemma 8",
            "optimum",
            "ordered opt",
            "best §4 (name)",
            "opt/LB",
            "alg/ordered",
        ],
    );
    for (n, m, lam) in instances() {
        let lb = runtimes::multi_lower_bound(n as u128, m as u64, lam);
        let (alg_name, alg) = best_section4(n as u128, m as u64, lam);
        let run = |policy| {
            match optimal_multi_broadcast_with(n, m, lam, alg, state_budget, policy) {
                SearchResult::Optimal(t) => (fmt_time(t), Some(t)),
                SearchResult::BudgetExhausted => ("budget".to_string(), None),
                // The best algorithm's time IS achievable (and REPEAT/PACK/
                // PIPELINE/DTREE all preserve order), so an exceeded
                // horizon proves nothing better exists below it.
                SearchResult::HorizonExceeded => (format!("{} (=alg)", fmt_time(alg)), Some(alg)),
            }
        };
        let (opt_str, opt) = run(OrderPolicy::Any);
        let (ord_str, ord) = run(OrderPolicy::Preserving);
        if let Some(opt) = opt {
            assert!(opt >= lb, "optimum below Lemma 8?!");
            assert!(opt <= alg, "search inconsistent with known algorithm");
        }
        if let (Some(opt), Some(ord)) = (opt, ord) {
            assert!(ord >= opt, "order preservation cannot help");
            assert!(ord <= alg, "§4 algorithms are order-preserving");
        }
        table.row(vec![
            n.to_string(),
            m.to_string(),
            lam.to_string(),
            fmt_time(lb),
            opt_str,
            ord_str,
            format!("{} ({alg_name})", fmt_time(alg)),
            opt.map(|o| format!("{:.3}", o.to_f64() / lb.to_f64()))
                .unwrap_or_else(|| "—".into()),
            ord.map(|o| format!("{:.3}", alg.to_f64() / o.to_f64()))
                .unwrap_or_else(|| "—".into()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_table_populates_with_small_budget() {
        let t = gap_table(2_000_000);
        assert_eq!(t.len(), instances().len());
        // At least the n=2 and n=3 rows must resolve to an exact optimum.
        let resolved = t.rows().iter().filter(|r| r[7] != "—").count();
        assert!(resolved >= 6, "only {resolved} instances resolved");
    }

    #[test]
    fn lemma8_is_tight_for_n2() {
        let t = gap_table(500_000);
        for row in t.rows().iter().filter(|r| r[0] == "2") {
            assert_eq!(row[7], "1.000", "n=2 must meet Lemma 8: {row:?}");
        }
    }
}
