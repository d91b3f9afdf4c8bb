//! Exact-value pins of full admission scans.
//!
//! Each test runs `PassManager::full` over a fixed set of designs and
//! pins the FNV-1a digest of the concatenated `CheckReport::to_json`
//! output, under the default config and again with `sense` declared as
//! a clock pin. `f64` values are rendered exactly, so a digest matches
//! only if every finding, severity, witness, span and detail string is
//! bit-identical to the pinned run. A speed-up of any pass must leave
//! every digest here unchanged. `scan_keys_are_pinned` pins the
//! scan-cache key itself, which names every entry on disk.

use slm_checker::{
    CheckKind, CheckerConfig, PassManager, ScanCache, Suppression, TaintConfig, TimingConfig,
};
use slm_cloud::{AdmissionGate, ClockContract, TenantSubmission};
use slm_netlist::generators::{
    alu, array_multiplier, carry_lookahead_adder, carry_select_adder, carry_sensor, clock_as_data,
    equality_comparator, kogge_stone_adder, obfuscated_ring_oscillator, obfuscated_tdc_delay_line,
    parity_tree, ring_oscillator, ripple_carry_adder, ripple_carry_adder_with_cin, ro_grid,
    tapped_carry_chain, tdc_delay_line, wallace_multiplier, zoo,
};
use slm_netlist::{Netlist, NetlistError};
use slm_obs::Obs;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The two configs every design is scanned under.
fn configs() -> [CheckerConfig; 2] {
    let sense = CheckerConfig {
        taint: TaintConfig {
            declared_clocks: vec!["sense".to_string()],
            ..TaintConfig::default()
        },
        ..CheckerConfig::default()
    };
    [CheckerConfig::default(), sense]
}

/// Digest of the full-scan reports of `designs` under both configs.
fn scan_digest(designs: &[Netlist]) -> u64 {
    let pm = PassManager::full();
    let mut h = FNV_OFFSET;
    for nl in designs {
        for config in &configs() {
            h = fnv1a(h, pm.run(nl, config, &Obs::null()).to_json().as_bytes());
        }
    }
    h
}

fn assert_pinned(what: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{what}: digest {got:#018x} != pinned {pinned:#018x}"
    );
}

type Build = fn(usize) -> Result<Netlist, NetlistError>;

const ADDER_WIDTHS: [usize; 8] = [8, 16, 33, 64, 127, 200, 320, 640];
const ALU_WIDTHS: [usize; 6] = [8, 16, 33, 64, 127, 256];
const MULT_WIDTHS: [usize; 6] = [4, 6, 9, 13, 20, 32];
const CHAIN_WIDTHS: [usize; 7] = [16, 33, 64, 127, 200, 320, 640];
const LINE_STAGES: [usize; 6] = [8, 16, 31, 64, 128, 256];

fn family(build: Build, widths: &[usize]) -> Vec<Netlist> {
    widths
        .iter()
        .map(|&w| build(w).expect("valid width"))
        .collect()
}

/// The nine generated families of the cold-admission corpus.
#[test]
fn generated_families_are_pinned() {
    let carry_sensors: Vec<Netlist> = ADDER_WIDTHS
        .iter()
        .zip([2, 3, 4, 6, 8, 2, 3, 4].iter().cycle())
        .map(|(&w, &tap)| carry_sensor(w, tap).expect("valid width"))
        .collect();
    let cases: [(&str, Vec<Netlist>, u64); 9] = [
        (
            "rca",
            family(ripple_carry_adder, &ADDER_WIDTHS),
            0x5713_1b11_8e86_eef1,
        ),
        (
            "cla",
            family(carry_lookahead_adder, &ADDER_WIDTHS),
            0x681c_68c9_427a_7a37,
        ),
        (
            "csa",
            family(carry_select_adder, &ADDER_WIDTHS),
            0x55d5_1213_2ed7_82f3,
        ),
        (
            "ksa",
            family(kogge_stone_adder, &ADDER_WIDTHS),
            0x7031_00cc_fcff_240d,
        ),
        ("alu", family(alu, &ALU_WIDTHS), 0x05cc_d459_1212_7f4b),
        (
            "array_mult",
            family(array_multiplier, &MULT_WIDTHS),
            0x52ba_2e5a_7ebc_a2d9,
        ),
        (
            "wallace",
            family(wallace_multiplier, &MULT_WIDTHS),
            0xb113_c1ce_78a4_6e11,
        ),
        (
            "tapped_chain",
            family(tapped_carry_chain, &CHAIN_WIDTHS),
            0xa82e_9475_4e1b_6bbd,
        ),
        ("carry_sensor", carry_sensors, 0xcd1f_5340_e77f_2a10),
    ];
    for (name, designs, pinned) in &cases {
        assert_pinned(name, scan_digest(designs), *pinned);
    }
}

#[test]
fn zoo_is_pinned() {
    let designs: Vec<Netlist> = zoo().into_iter().map(|e| e.netlist).collect();
    assert_pinned("zoo", scan_digest(&designs), 0xb538_fc17_9157_aebd);
}

#[test]
fn delay_lines_are_pinned() {
    assert_pinned(
        "tdc_delay_line",
        scan_digest(&family(tdc_delay_line, &LINE_STAGES)),
        0xf656_1201_23a8_2b17,
    );
    assert_pinned(
        "obfuscated_tdc_delay_line",
        scan_digest(&family(obfuscated_tdc_delay_line, &LINE_STAGES)),
        0xb051_474f_f009_a0db,
    );
}

/// The admission verdict and diagnostics of Kogge-Stone adders that
/// request a 300 MHz clock: the full scan plus the strict timing check,
/// pinned with the report the verdict was rendered from.
#[test]
fn ksa_admission_at_300_mhz_is_pinned() {
    let gate = AdmissionGate::new(ScanCache::in_memory());
    for (width, pinned) in [(32, 0xdbe1_8cdd_eda1_8dec), (64, 0x43af_a157_b3de_b53d)] {
        let sub = TenantSubmission::new(
            format!("ksa{width}"),
            kogge_stone_adder(width).expect("valid width"),
        )
        .with_contract(ClockContract {
            declared_clocks: Vec::new(),
            clock_mhz: Some(300.0),
        });
        let d = gate.decide(&sub);
        let text = format!(
            "{:?}\n{}\n{}",
            d.verdict,
            d.diagnostics.join("\n"),
            d.report.to_json()
        );
        assert_pinned(
            &format!("ksa{width} @ 300 MHz"),
            fnv1a(FNV_OFFSET, text.as_bytes()),
            pinned,
        );
    }
}

/// Every generator family with three sizes to build it at.
const EVERY_FAMILY: [(&str, Build, [usize; 3]); 17] = [
    ("rca", ripple_carry_adder, [8, 45, 256]),
    ("rca_cin", ripple_carry_adder_with_cin, [8, 45, 256]),
    ("cla", carry_lookahead_adder, [8, 45, 256]),
    ("csa", carry_select_adder, [8, 45, 256]),
    ("ksa", kogge_stone_adder, [8, 45, 256]),
    ("alu", alu, [8, 45, 128]),
    ("array_mult", array_multiplier, [4, 9, 20]),
    ("wallace", wallace_multiplier, [4, 9, 20]),
    ("equality", equality_comparator, [4, 17, 64]),
    ("parity", parity_tree, [2, 17, 64]),
    ("ring_osc", ring_oscillator, [2, 6, 30]),
    ("obf_ring_osc", obfuscated_ring_oscillator, [2, 6, 30]),
    ("ro_grid", ro_grid, [2, 5, 16]),
    ("clock_as_data", clock_as_data, [4, 16, 64]),
    ("tdc", tdc_delay_line, [8, 64, 256]),
    ("obf_tdc", obfuscated_tdc_delay_line, [8, 64, 256]),
    ("tapped_chain", tapped_carry_chain, [16, 64, 256]),
];

/// The report-level pin: the digest of every full-scan report's
/// `Debug` rendering (which spells out each field, `f64`s exactly),
/// over the zoo, every generator family at three sizes, carry sensors
/// at three sizes and taps, and Kogge-Stone adders requesting 300 MHz.
#[test]
fn report_debug_digest_is_pinned() {
    let pm = PassManager::full();
    let config = CheckerConfig::default();
    let mut h = FNV_OFFSET;
    let mut scan = |nl: &Netlist, config: &CheckerConfig| {
        h = fnv1a(
            h,
            format!("{:?}", pm.run(nl, config, &Obs::null())).as_bytes(),
        );
    };
    for entry in zoo() {
        scan(&entry.netlist, &config);
    }
    for (name, build, sizes) in EVERY_FAMILY {
        for size in sizes {
            let nl = build(size).unwrap_or_else(|e| panic!("{name}{size}: {e}"));
            scan(&nl, &config);
        }
    }
    for (bits, tap) in [(8, 2), (45, 3), (256, 4)] {
        scan(&carry_sensor(bits, tap).expect("valid width"), &config);
    }
    let at_300 = CheckerConfig {
        timing: TimingConfig {
            clock_mhz: Some(300.0),
        },
        ..CheckerConfig::default()
    };
    for width in [32, 64] {
        scan(&kogge_stone_adder(width).expect("valid width"), &at_300);
    }
    assert_pinned("report debug digest", h, 0x5761_fd09_8c99_5943);
}

/// Every generator family with the range of widths to sweep it over,
/// in steps of the last field (ring oscillators take even counts).
const FAMILY_RANGES: [(&str, Build, usize, usize, usize); 17] = [
    ("rca", ripple_carry_adder, 4, 640, 1),
    ("rca_cin", ripple_carry_adder_with_cin, 4, 640, 1),
    ("cla", carry_lookahead_adder, 4, 640, 1),
    ("csa", carry_select_adder, 4, 640, 1),
    ("ksa", kogge_stone_adder, 4, 640, 1),
    ("alu", alu, 4, 256, 1),
    ("array_mult", array_multiplier, 2, 32, 1),
    ("wallace", wallace_multiplier, 2, 32, 1),
    ("equality", equality_comparator, 2, 128, 1),
    ("parity", parity_tree, 2, 128, 1),
    ("ring_osc", ring_oscillator, 1, 32, 2),
    ("obf_ring_osc", obfuscated_ring_oscillator, 1, 32, 2),
    ("ro_grid", ro_grid, 1, 16, 1),
    ("clock_as_data", clock_as_data, 2, 128, 1),
    ("tdc", tdc_delay_line, 4, 256, 1),
    ("obf_tdc", obfuscated_tdc_delay_line, 4, 256, 1),
    ("tapped_chain", tapped_carry_chain, 4, 640, 1),
];

/// Eight widths from `lo` to `hi`, evenly spaced on a log scale.
fn log_widths(lo: usize, hi: usize) -> impl Iterator<Item = usize> {
    let ratio = hi as f64 / lo as f64;
    (0..8).map(move |k| (lo as f64 * ratio.powf(f64::from(k) / 7.0)).round() as usize)
}

/// The corpus pin: the digest of every full-scan finding's kind,
/// severity, pass, witness, span and detail, over the zoo, every
/// generator family and carry sensors at eight log-spaced widths,
/// under the default config and under a 300 MHz clock contract.
#[test]
fn log_spaced_corpus_is_pinned() {
    let mut designs: Vec<Netlist> = zoo().into_iter().map(|e| e.netlist).collect();
    for (name, build, lo, hi, step) in FAMILY_RANGES {
        for width in log_widths(lo, hi).map(|w| w * step) {
            designs.push(build(width).unwrap_or_else(|e| panic!("{name}{width}: {e}")));
        }
    }
    for (width, tap) in log_widths(4, 640).zip([2, 3, 4, 6, 8].iter().cycle()) {
        designs.push(carry_sensor(width, *tap).expect("valid width"));
    }
    let at_300 = CheckerConfig {
        timing: TimingConfig {
            clock_mhz: Some(300.0),
        },
        ..CheckerConfig::default()
    };
    let pm = PassManager::full();
    let mut h = FNV_OFFSET;
    for config in [CheckerConfig::default(), at_300] {
        for nl in &designs {
            let report = pm.run(nl, &config, &Obs::null());
            h = fnv1a(
                h,
                format!("{} {}\n", report.netlist, report.nets).as_bytes(),
            );
            for f in &report.findings {
                let line = format!(
                    "{:?} {:?} {} {:?} {:?} {}\n",
                    f.kind, f.severity, f.pass, f.witness, f.span, f.detail
                );
                h = fnv1a(h, line.as_bytes());
            }
        }
    }
    assert_pinned("log-spaced corpus", h, 0x4b19_789d_2975_1a04);
}

/// The disk-tier cache key of one fixed netlist under four configs.
/// `scan_key` hashes the netlist's content hash with the serialized
/// config, so these values hold only while the config renders to the
/// same text; a change to that encoding orphans every cache entry on
/// disk and must show up here.
#[test]
fn scan_keys_are_pinned() {
    let nl = kogge_stone_adder(16).expect("valid width");
    let clocked = CheckerConfig {
        taint: TaintConfig {
            declared_clocks: vec!["sense".to_string()],
            ..TaintConfig::default()
        },
        ..CheckerConfig::default()
    };
    let at_300 = CheckerConfig {
        timing: TimingConfig {
            clock_mhz: Some(300.0),
        },
        ..CheckerConfig::default()
    };
    let suppressed = CheckerConfig {
        suppressions: vec![Suppression {
            kind: Some(CheckKind::TimingOverclock),
            pass: Some("timing".to_string()),
            net_name: None,
            reason: "vendor IP".to_string(),
        }],
        ..CheckerConfig::default()
    };
    let cache = ScanCache::in_memory();
    let cases: [(&str, CheckerConfig, u64); 4] = [
        ("default", CheckerConfig::default(), 0x964f_6768_fd2f_a889),
        ("declared clock", clocked, 0x0a2e_f973_b3a0_20c3),
        ("300 MHz", at_300, 0xacec_c2df_6b91_221f),
        ("one suppression", suppressed, 0x4c88_7fc1_e7b0_8617),
    ];
    for (name, config, pinned) in &cases {
        assert_pinned(name, cache.scan_key(&nl, config), *pinned);
    }
}
