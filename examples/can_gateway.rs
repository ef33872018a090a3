//! Automotive CAN gateway: bursty frame traffic, asynchronous
//! forwarding chains, weakly-hard contracts checked against simulation.
//!
//! A gateway ECU forwards frames between two buses. Routine traffic is
//! periodic; body-domain traffic arrives in bursts (e.g. door-module
//! wake-ups); and a diagnostics session occasionally floods the gateway
//! — the overload source. Forwarding chains are *asynchronous*: a new
//! frame is processed even while an earlier one is still queued, so the
//! self-interference (`s_header`) term of Theorem 1 is exercised.
//!
//! ```text
//! cargo run --release --example can_gateway
//! ```

use twca_suite::chains::{
    max_consecutive_misses, AnalysisContext, AnalysisOptions, ChainAnalysis, MkConstraint,
};
use twca_suite::curves::ActivationModel;
use twca_suite::model::{ChainKind, SystemBuilder};
use twca_suite::sim::{adversarial_aligned_traces, Simulation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Powertrain frames: strictly periodic, tight deadline, forwarded by
    // a two-task chain (receive, transmit).
    // Body frames: nominally every 100 ticks but released with up to 60
    // ticks of jitter (gateway-side queuing), so frames can bunch up to
    // 5 ticks apart — burst-like arrivals with a *bounded* δ⁺, which is
    // what a finite deadline-miss model needs.
    // Diagnostics: sporadic dumps that monopolize the gateway.
    let body_frames = ActivationModel::periodic_jitter(100, 60, 5)?;
    let system = SystemBuilder::new()
        .chain("powertrain")
        .periodic(100)?
        .deadline(100)
        .kind(ChainKind::Asynchronous)
        .task("pt_rx", 6, 8)
        .task("pt_tx", 5, 12)
        .done()
        .chain("body")
        .activation(body_frames)
        .deadline(60)
        .kind(ChainKind::Asynchronous)
        .task("body_rx", 4, 6)
        .task("body_tx", 2, 10)
        .done()
        .chain("diag")
        .sporadic(1_500)?
        .overload()
        .task("diag_parse", 3, 25)
        .task("diag_reply", 1, 35)
        .done()
        .build()?;

    let analysis = ChainAnalysis::new(&system);
    let ctx = AnalysisContext::new(&system);

    println!("== Gateway latency bounds ==");
    for name in ["powertrain", "body"] {
        let (id, chain) = system.chain_by_name(name).expect("chain exists");
        let full = analysis.worst_case_latency(id)?;
        let typical = analysis.typical_latency(id)?.expect("typical bounded");
        println!(
            "{name:<11} WCL = {:>3} (typical {:>3})  D = {}",
            full.worst_case_latency,
            typical.worst_case_latency,
            chain.deadline().expect("deadline set"),
        );
    }

    println!("\n== Weakly-hard contracts ==");
    for (name, m, k) in [("powertrain", 1u64, 10u64), ("body", 2, 10)] {
        let (id, _) = system.chain_by_name(name).expect("chain exists");
        let dmm = analysis.deadline_miss_model(id, k)?;
        let verdict = if MkConstraint::new(m, k).admits(dmm.bound) {
            "GUARANTEED"
        } else {
            "not provable"
        };
        let run = max_consecutive_misses(&ctx, id, 32, AnalysisOptions::default())?;
        println!(
            "{name:<11} dmm({k}) = {}  ({m},{k}): {verdict}  consecutive ≤ {}",
            dmm.bound,
            run.map_or("?".into(), |v| v.to_string()),
        );
    }

    // Replay an adversarial run and count the misses in every window of
    // 10 consecutive frames, as a runtime guard in the gateway firmware
    // would.
    println!("\n== Misses per 10-frame window on an adversarial run ==");
    let traces = adversarial_aligned_traces(&system, 60_000);
    let result = Simulation::new(&system).run(&traces);
    for name in ["powertrain", "body"] {
        let (id, _) = system.chain_by_name(name).expect("chain exists");
        let stats = result.chain(id);
        let worst = stats.max_misses_in_window(10);
        println!(
            "{name:<11} {} instances, {} misses total, at most {worst} in any 10",
            stats.miss_flags().len(),
            stats.miss_count(),
        );
        // The analytic contract must dominate the observation.
        let dmm = analysis.deadline_miss_model(id, 10)?;
        assert!(worst as u64 <= dmm.bound, "analysis missed observed misses");
    }

    Ok(())
}
