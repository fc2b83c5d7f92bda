//! The Section-5 collectives on real threads: exercises timer wake-ups
//! (the gather phase), count-driven phase transitions, and payload
//! fidelity on the threaded substrate.

use postal_algos::ext::gossip::{GossipPacket, GossipProgram};
use postal_algos::ext::scatter::{Item, ScatterRoot};
use postal_model::Latency;
use postal_runtime::{run_threaded, send_programs_from, RuntimeConfig};
use postal_sim::{Idle, ProcId, Program};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn config() -> RuntimeConfig {
    RuntimeConfig {
        unit: Duration::from_millis(3),
    }
}

#[test]
fn gossip_on_threads_everyone_learns_everything() {
    let n = 8usize;
    let lam = Latency::from_int(2);
    let values: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();

    let (table, orientation) = GossipProgram::stream_cascade(n, lam);
    let programs = send_programs_from(n, |id| {
        Box::new(GossipProgram::new(
            id,
            n,
            values[id.index()],
            Arc::clone(&table),
            orientation,
        )) as Box<dyn Program<GossipPacket> + Send>
    });
    let report = run_threaded(lam, config(), programs);

    // Reconstruct knowledge from deliveries.
    let mut known: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
    for d in &report.deliveries {
        match d.payload {
            GossipPacket::Gather { value } => {
                known.entry(d.to.0).or_default().insert(d.from.0, value);
            }
            GossipPacket::Stream { msg, value, .. } => {
                known.entry(d.to.0).or_default().insert(msg - 1, value);
            }
        }
    }
    for p in 0..n as u32 {
        let k = known.entry(p).or_default();
        k.insert(p, values[p as usize]); // own value
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(k.get(&(i as u32)), Some(&v), "p{p} missing value of p{i}");
        }
    }
}

#[test]
fn scatter_on_threads_delivers_personalized_items() {
    let n = 10usize;
    let lam = Latency::from_ratio(5, 2);
    let items: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
    let items_clone = items.clone();

    let programs = send_programs_from(n, move |id| {
        if id == ProcId::ROOT {
            Box::new(ScatterRoot::new(items_clone.clone())) as Box<dyn Program<Item> + Send>
        } else {
            Box::new(Idle) as Box<dyn Program<Item> + Send>
        }
    });
    let report = run_threaded(lam, config(), programs);
    assert_eq!(report.deliveries.len(), n - 1);
    for d in &report.deliveries {
        assert_eq!(d.payload.0, items[d.to.index()], "wrong item at {:?}", d.to);
    }
}
