//! Exact-value pins of static timing analysis.
//!
//! Each row annotates one fixed design, runs `AnnotatedDelays::sta` and
//! pins an FNV-1a digest of the result's bits: the arrival of every
//! net, the critical-path delay, and the nets and arrivals of the
//! critical path. A digest matches only if every `f64` is bit-identical
//! to the pinned run, so a change to how STA is computed must leave
//! each digest here unchanged.
//!
//! The digest function is local to this file, so no pin is computed by
//! the code under test.

use slm_netlist::generators::{alu, c6288, kogge_stone_adder, tdc_delay_line};
use slm_netlist::{NetId, Netlist};
use slm_timing::{AnnotatedDelays, DelayModel};

/// FNV-1a folded over `bytes`, starting from state `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of one STA pass over `ann`.
fn sta_digest(ann: &AnnotatedDelays) -> u64 {
    let nl = ann.netlist();
    let sta = ann.sta().expect("acyclic design");
    let mut h = 0xcbf2_9ce4_8422_2325;
    for i in 0..nl.len() {
        h = fnv1a(h, &sta.arrival_ps(NetId(i as u32)).to_bits().to_le_bytes());
    }
    h = fnv1a(h, &sta.critical_ps().to_bits().to_le_bytes());
    for seg in sta.critical_path(nl) {
        h = fnv1a(h, &seg.net.0.to_le_bytes());
        h = fnv1a(h, &seg.arrival_ps.to_bits().to_le_bytes());
    }
    h
}

fn default_annotation(nl: &Netlist) -> AnnotatedDelays {
    DelayModel::default().annotate(nl)
}

#[test]
fn sta_results_are_pinned() {
    let alu192 = DelayModel::default()
        .annotate_for_period(&alu(192).expect("valid width"), 20.0, 0.9)
        .expect("acyclic design");
    let cases: [(&str, AnnotatedDelays, u64); 4] = [
        ("alu192 @ 20 ns x 0.9", alu192, 0xf546_f069_52eb_0bb9),
        (
            "c6288",
            default_annotation(&c6288().expect("valid design")),
            0xebce_4406_0e8c_acb1,
        ),
        (
            "ksa64",
            default_annotation(&kogge_stone_adder(64).expect("valid width")),
            0xfc85_dad2_7541_a2d5,
        ),
        (
            "tdc64",
            default_annotation(&tdc_delay_line(64).expect("valid width")),
            0x4c0e_da6a_6753_317f,
        ),
    ];
    for (name, ann, pinned) in &cases {
        let got = sta_digest(ann);
        assert_eq!(
            got, *pinned,
            "{name}: digest {got:#018x} != pinned {pinned:#018x}"
        );
    }
}
