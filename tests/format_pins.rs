//! Byte pins of every ledger format and of the hashed identities.
//!
//! Each test encodes one fixed value and pins an FNV-1a digest of the
//! exact bytes written: the `SLMC` accumulator checkpoint, the `SLMS`
//! stream checkpoint and a progress log with two chained `SLMP`
//! records. Existing ledgers resume only while these
//! bytes stay the same, so a change to the codec under the formats
//! must leave every digest here unchanged. The streaming-campaign
//! fingerprint and the aggressor tag are pinned as plain values: both
//! are FNV-1a hashes computed by library code, and a move of that code
//! must not change them.
//!
//! The digest function is local to this file, so no pin is computed by
//! the code under test.
//!
//! `Netlist::content_hash` is pinned the same way, as plain values: it
//! names every scan-cache entry, in memory and on disk (`SLMK`), so a
//! change to how a netlist is stored must leave each hash unchanged.
//! The values are those of the XXH64 section encoding documented on
//! `content_hash`; they replaced the FNV-1a byte-stream values when the
//! hash itself changed, which orphans cache entries written before.

use slm_core::experiments::{CpaExperiment, SensorSource, StreamingCpa};
use slm_cpa::store::{
    read_checkpoint, read_stream_checkpoint, write_checkpoint, write_stream_checkpoint, LogPrefix,
    ProgressLog, StreamCheckpoint, PROGRESS_LOG_FILE,
};
use slm_cpa::{CpaAttack, CpaCheckpoint, LastRoundModel, ProgressPoint};
use slm_fabric::{AggressorSpec, BenignCircuit};
use slm_netlist::{bench, generators, Netlist};

/// FNV-1a over raw bytes.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A fixed ciphertext for trace `t`.
fn ciphertext(t: u8) -> [u8; 16] {
    std::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(t.wrapping_mul(11)))
}

/// A fixed accumulator: two points of sensor counts, five absorbed
/// traces.
fn checkpoint() -> CpaCheckpoint {
    let mut attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
    for t in 0..5u8 {
        attack.add_trace(&ciphertext(t), &[f64::from(t) * 3.0, 40.0 - f64::from(t)]);
    }
    attack.checkpoint()
}

#[test]
fn accumulator_checkpoint_bytes_are_pinned() {
    let cp = checkpoint();
    let mut bytes = Vec::new();
    write_checkpoint(&mut bytes, &cp).unwrap();
    assert_eq!(read_checkpoint(&bytes[..]).unwrap(), cp);
    assert_eq!(digest(&bytes), 0x0ca319eb52cb6db7, "SLMC bytes moved");
}

#[test]
fn stream_checkpoint_bytes_are_pinned() {
    let cp = StreamCheckpoint {
        fingerprint: 0x0123_4567_89ab_cdef,
        windows: 3,
        traces: 5,
        log_records: 2,
        log_seal: 0xfeed_face_cafe_beef,
        slots: vec![checkpoint(), checkpoint()],
    };
    let mut bytes = Vec::new();
    write_stream_checkpoint(&mut bytes, &cp).unwrap();
    assert_eq!(read_stream_checkpoint(&bytes[..]).unwrap(), cp);
    assert_eq!(digest(&bytes), 0xa666b8aec27bd588, "SLMS bytes moved");
}

#[test]
fn progress_log_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("slm-format-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut log = ProgressLog::resume(&dir, &LogPrefix::empty(2, 0x5eed)).unwrap();
    for commit in 0..2u64 {
        let points: Vec<ProgressPoint> = (0..2u64)
            .map(|slot| ProgressPoint {
                traces: 100 * (commit + 1),
                peak_corr: (0..3u64)
                    .map(|k| (k + slot) as f64 / (4 + commit) as f64)
                    .collect(),
            })
            .collect();
        let rec = log.encode(&points).unwrap();
        log.append(&rec).unwrap();
    }
    let bytes = std::fs::read(dir.join(PROGRESS_LOG_FILE)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(log.records(), 2);
    assert_eq!(log.seal(), 0xf0f72e028449bd99, "SLMP chained seal moved");
    assert_eq!(digest(&bytes), 0xf35ef6ba6ac4ed8c, "SLMP bytes moved");
}

#[test]
fn hashed_identities_are_pinned() {
    let exp = StreamingCpa::new(CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: 240,
        checkpoints: 4,
        pilot_traces: 20,
        seed: 41,
    })
    .with_window(60)
    .with_config_tag(7);
    assert_eq!(
        exp.fingerprint(),
        0xb5eb3b6089346434,
        "streaming fingerprint moved"
    );
    let spec = AggressorSpec {
        peak_current_a: 0.75,
        on_ticks: 12,
        period_ticks: 151,
        phase_ticks: 5,
    };
    assert_eq!(spec.tag(), 0x039bd4b1c7a16d8e, "aggressor tag moved");
}

#[test]
fn netlist_content_hashes_are_pinned() {
    let c6288 = generators::c6288().unwrap();
    let parsed = bench::parse(&bench::write(&c6288), "c6288_bench").unwrap();
    let rows: [(&str, Netlist, u64); 6] = [
        (
            "kogge_stone_adder(64)",
            generators::kogge_stone_adder(64).unwrap(),
            0xdc89_f76b_4b6d_0fdb,
        ),
        (
            "carry_sensor(64, 4)",
            generators::carry_sensor(64, 4).unwrap(),
            0x2ca3_0767_de9e_c7fc,
        ),
        ("c6288()", c6288.clone(), 0x691d_abb2_098e_7171),
        ("parsed c6288 .bench", parsed, 0x0486_dd8e_b5df_734f),
        (
            "disjoint_union of two c6288",
            Netlist::disjoint_union("dual", &[&c6288, &c6288]).unwrap(),
            0x0082_1ab3_d308_478d,
        ),
        (
            "ring_oscillator(8)",
            generators::ring_oscillator(8).unwrap(),
            0x721c_71c6_379f_8665,
        ),
    ];
    for (what, nl, pinned) in rows {
        assert_eq!(nl.content_hash(), pinned, "{what}: content hash moved");
    }
}
