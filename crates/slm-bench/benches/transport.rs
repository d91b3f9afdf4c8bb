//! Fault-robustness study: the cost of an unreliable UART.
//!
//! Regenerates the fault-rate vs. MTD sweep (the robustness analogue of
//! the paper's trace-count figures): how much trace overhead the
//! retry/quarantine loop pays at each wire quality, and where the
//! attack stops converging.

use slm_core::experiments::{transport_fault_study, TransportFaultStudy};

fn main() {
    let exp = TransportFaultStudy {
        // MTD on this fabric varies a few-fold with the plaintext
        // stream; 6k traces puts every benign rate safely past it so a
        // non-converged row means the wire, not an unlucky stream.
        traces: 6_000,
        fault_rates: vec![0.0, 1e-4, 1e-3, 5e-3],
        seed: 41,
        ..TransportFaultStudy::default()
    };
    let start = std::time::Instant::now();
    let r = transport_fault_study(&exp).expect("fabric builds");
    for row in &r.rows {
        println!(
            "[fault_sweep] rate={:.0e} delivered={}/{} retries={} quarantined={} resyncs={} \
             recovered={} mtd={:?} wire_s={:.1}",
            row.fault_rate,
            row.delivered,
            row.requested,
            row.retries,
            row.quarantined,
            row.resyncs,
            row.recovered,
            row.mtd,
            row.wire_time_s,
        );
    }
    println!("[fault_sweep] elapsed={:.1?}", start.elapsed());
}
