//! One property over every sealed on-disk format: the `SLMC`
//! accumulator checkpoint, the `SLMS` stream checkpoint, the `SLMP`
//! progress log and the `SLMK` scan-cache entry.
//!
//! Each format contributes the bytes of one valid value and a function
//! that decodes bytes and encodes the result again. For every format
//! the property checks that
//!
//! * decode → encode reproduces the bytes exactly;
//! * flipping any bit of any byte never decodes;
//! * truncating to any shorter length never decodes;
//!
//! and a panic anywhere fails it like a wrong answer does. The
//! progress log and the scan cache are driven through their public,
//! file-backed entry points, the way a resumed campaign or a fresh
//! cache process meets them.

use proptest::prelude::*;
use slm_aes::soft;
use slm_checker::{span_of, CheckKind, Finding, ScanCache, Severity};
use slm_cpa::store::{
    read_checkpoint, read_stream_checkpoint, replay_progress_log, write_checkpoint,
    write_stream_checkpoint, LogPrefix, ProgressLog, StreamCheckpoint, PROGRESS_LOG_FILE,
};
use slm_cpa::{CpaAttack, LastRoundModel, ProgressPoint};
use slm_netlist::NetId;
use slm_pdn::noise::Rng64;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

type Reencode = Box<dyn Fn(&[u8]) -> Result<Vec<u8>, String> + Send + Sync>;

/// One on-disk format: the bytes of a valid value, and decode → encode.
struct Format {
    name: &'static str,
    bytes: Vec<u8>,
    reencode: Reencode,
}

/// A fresh, empty directory under the system temp dir.
fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("slm-sealed-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `f` in a scratch directory and removes it afterwards.
fn in_scratch<T>(f: impl FnOnce(&Path) -> T) -> T {
    let dir = scratch_dir();
    let out = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn accumulator_checkpoint() -> Format {
    let mut bytes = Vec::new();
    let attack = CpaAttack::new(LastRoundModel::paper_target(), 3);
    write_checkpoint(&mut bytes, &attack.checkpoint()).unwrap();
    Format {
        name: "SLMC accumulator checkpoint",
        bytes,
        reencode: Box::new(|bytes| {
            let cp = read_checkpoint(bytes).map_err(|e| e.to_string())?;
            let mut out = Vec::new();
            write_checkpoint(&mut out, &cp).unwrap();
            Ok(out)
        }),
    }
}

fn stream_checkpoint() -> Format {
    let key = [9u8; 16];
    let mut rng = Rng64::new(5);
    let mut attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
    for _ in 0..300 {
        let mut pt = [0u8; 16];
        rng.fill_bytes(&mut pt);
        let counts = [rng.below(64) as f64, rng.below(64) as f64];
        attack.add_trace(&soft::encrypt(&key, &pt), &counts);
    }
    let cp = StreamCheckpoint {
        fingerprint: 0xfeed_f00d,
        windows: 2,
        traces: 300,
        log_records: 2,
        log_seal: 0x5ea1_5ea1,
        slots: vec![attack.checkpoint()],
    };
    let mut bytes = Vec::new();
    write_stream_checkpoint(&mut bytes, &cp).unwrap();
    Format {
        name: "SLMS stream checkpoint",
        bytes,
        reencode: Box::new(|bytes| {
            let cp = read_stream_checkpoint(bytes).map_err(|e| e.to_string())?;
            let mut out = Vec::new();
            write_stream_checkpoint(&mut out, &cp).unwrap();
            Ok(out)
        }),
    }
}

fn progress_log() -> Format {
    const SLOTS: usize = 2;
    const RECORDS: u64 = 3;
    const SEED: u64 = 0x51;
    // Writes one record per commit and returns the log file and the
    // last chained seal.
    let write_log = |curves: &[Vec<ProgressPoint>]| {
        in_scratch(|dir| {
            let mut log = ProgressLog::resume(dir, &LogPrefix::empty(SLOTS, SEED)).unwrap();
            for commit in 0..RECORDS as usize {
                let points: Vec<ProgressPoint> =
                    curves.iter().map(|curve| curve[commit].clone()).collect();
                let rec = log.encode(&points).unwrap();
                log.append(&rec).unwrap();
            }
            (
                std::fs::read(dir.join(PROGRESS_LOG_FILE)).unwrap(),
                log.seal(),
            )
        })
    };
    let curves: Vec<Vec<ProgressPoint>> = (0..SLOTS)
        .map(|slot| {
            (0..RECORDS)
                .map(|commit| ProgressPoint {
                    traces: 100 * (commit + 1),
                    peak_corr: (0..16)
                        .map(|k| (k + slot) as f64 / (16 + commit) as f64)
                        .collect(),
                })
                .collect()
        })
        .collect();
    let (bytes, seal) = write_log(&curves);
    Format {
        name: "SLMP progress log",
        bytes,
        reencode: Box::new(move |bytes| {
            let prefix = replay_progress_log(bytes, SLOTS, RECORDS, SEED, seal)
                .map_err(|e| e.to_string())?;
            Ok(write_log(&prefix.progress).0)
        }),
    }
}

fn scan_cache_entry() -> Format {
    const KEY: u64 = 42;
    const PASS: &str = "clock-taint";
    let nl = slm_netlist::generators::c17();
    let mut suppressed = Finding::new(
        CheckKind::DelayLineSensor,
        Severity::Warn,
        "delay-line",
        "a 3-stage chain".into(),
    );
    suppressed.suppressed = Some("allowlisted".into());
    let findings = vec![
        Finding::new(
            CheckKind::ClockTaint,
            Severity::Reject,
            PASS,
            "clock-rate taint on 9 outputs".into(),
        )
        .with_witness(NetId(3))
        .with_span(span_of(&nl, &[NetId(1), NetId(2)])),
        suppressed,
    ];
    // Stores `findings` through a fresh cache; returns the entry file.
    let put = |findings: &[Finding]| {
        in_scratch(|dir| {
            ScanCache::with_dir(dir).unwrap().put(KEY, PASS, findings);
            let entry = std::fs::read_dir(dir).unwrap().next().unwrap().unwrap();
            (entry.file_name(), std::fs::read(entry.path()).unwrap())
        })
    };
    let (file, bytes) = put(&findings);
    Format {
        name: "SLMK scan-cache entry",
        bytes,
        reencode: Box::new(move |bytes| {
            let cached = in_scratch(|dir| {
                std::fs::write(dir.join(&file), bytes).unwrap();
                ScanCache::with_dir(dir).unwrap().get(KEY, PASS)
            });
            Ok(put(&cached.ok_or("a miss")?).1)
        }),
    }
}

fn formats() -> &'static [Format] {
    static FORMATS: OnceLock<Vec<Format>> = OnceLock::new();
    FORMATS.get_or_init(|| {
        vec![
            accumulator_checkpoint(),
            stream_checkpoint(),
            progress_log(),
            scan_cache_entry(),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every format round-trips byte for byte, and no single-bit flip
    /// or truncation of a valid value decodes (or panics).
    #[test]
    fn every_format_round_trips_and_rejects_flips_and_truncations(
        pos in any::<u32>(),
        bit in 0u8..8,
        cut in any::<u32>(),
    ) {
        for format in formats() {
            let bytes = &format.bytes;
            prop_assert_eq!(
                (format.reencode)(bytes).as_ref(), Ok(bytes),
                "{} does not round-trip", format.name
            );
            let pos = pos as usize % bytes.len();
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            prop_assert!(
                (format.reencode)(&flipped).is_err(),
                "{}: flip of bit {} at byte {} decoded", format.name, bit, pos
            );
            let cut = cut as usize % bytes.len();
            prop_assert!(
                (format.reencode)(&bytes[..cut]).is_err(),
                "{}: truncation to {} bytes decoded", format.name, cut
            );
        }
    }
}
