//! The content-addressed per-pass scan cache.
//!
//! Admission-at-traffic means scanning the *same* tenant netlists over
//! and over — every resubmission, every config rollout, every nightly
//! re-audit. Pass results are pure functions of (netlist, config,
//! pass), so they are cached under an FNV-1a key over the netlist's
//! XXH64 [`content hash`](slm_netlist::Netlist::content_hash), the
//! serialized [`CheckerConfig`], and the pass name — the same
//! fingerprint discipline the streaming checkpoint ledger uses. A warm
//! cache replays findings without building the analysis context at
//! all.
//!
//! Two tiers:
//!
//! * an in-memory map (always on), shared across threads behind a
//!   mutex so one cache serves a whole `--jobs N` batch;
//! * an optional on-disk tier with one file per (scan, pass) entry,
//!   written atomically (`.tmp` + rename). The vendored `serde_json`
//!   has no parser, so entries are sealed records of the workspace
//!   codec ([`slm_par::codec`]); any unreadable, truncated, corrupt or
//!   older-format file is treated as a miss, never an error.
//!
//! Entry layout (little-endian; `str` is a `u32` byte length and UTF-8
//! bytes, `opt<T>` a `0`/`1` presence byte and `T` when present):
//!
//! ```text
//! magic "SLMK" | version u16 = 1 | count u32
//! count × finding:
//!   str kind | str severity | str pass | opt<u32> witness net
//!   u32 span length | span × ( u32 net | opt<str> name )
//!   str detail | opt<str> suppression reason
//! fletcher-64 seal over everything above
//! ```
//!
//! Kind and severity are stored as their stable string labels, so an
//! added enum variant does not shift the encoding of the others.
//!
//! Cached findings are **pre-suppression**: suppression rules are part
//! of the config hash anyway, but applying them at replay keeps the
//! invariant that a `Reject` can never be hidden by a stale allowlist.

use crate::config::CheckerConfig;
use crate::diag::{CheckKind, Finding, Severity, SpanNet};
use slm_netlist::{NetId, Netlist};
use slm_par::codec::{fnv1a, DecodeError, Reader, Writer, FNV_OFFSET};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const MAGIC: &[u8; 4] = b"SLMK";
const VERSION: u16 = 1;

/// A shared, thread-safe cache of per-pass scan results.
pub struct ScanCache {
    mem: Mutex<HashMap<u64, Vec<Finding>>>,
    /// Serialized configs, one per contract hash (see
    /// [`ScanCache::config_json`]), with the config each renders.
    configs: Mutex<HashMap<u64, (CheckerConfig, Arc<str>)>>,
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ScanCache {
    /// A purely in-memory cache.
    pub fn in_memory() -> Self {
        ScanCache {
            mem: Mutex::new(HashMap::new()),
            configs: Mutex::new(HashMap::new()),
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache backed by one file per entry under `dir` (created if
    /// missing), warm across processes.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn with_dir(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ScanCache {
            mem: Mutex::new(HashMap::new()),
            configs: Mutex::new(HashMap::new()),
            dir: Some(dir),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Entries served from cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the pass.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The scan-level part of the cache key: FNV over the netlist
    /// content hash and the serialized checker config. Any observable
    /// change to either — one gate, one threshold, one suppression
    /// rule — yields a different key.
    pub fn scan_key(&self, nl: &Netlist, config: &CheckerConfig) -> u64 {
        fnv1a(
            fnv1a(FNV_OFFSET, &nl.content_hash().to_le_bytes()),
            self.config_json(config).as_bytes(),
        )
    }

    /// `config` serialized, memoised per contract: the declared clocks
    /// and the requested clock's bits, the fields an admission gate
    /// layers on its one base config per submission. An entry serves
    /// only a config [identical](CheckerConfig::identical) to the one it
    /// was rendered from; any other config is rendered afresh and
    /// takes the entry over.
    fn config_json(&self, config: &CheckerConfig) -> Arc<str> {
        let clock = config.timing.clock_mhz.map_or(0, f64::to_bits);
        let contract = config
            .taint
            .declared_clocks
            .iter()
            .fold(fnv1a(FNV_OFFSET, &clock.to_le_bytes()), |h, name| {
                fnv1a(fnv1a(h, &name.len().to_le_bytes()), name.as_bytes())
            });
        let mut configs = self.configs.lock().expect("cache lock");
        match configs.get(&contract) {
            Some((seen, json)) if seen.identical(config) => Arc::clone(json),
            _ => {
                let json: Arc<str> = serde_json::to_string(config)
                    .expect("config serialization is infallible")
                    .into();
                configs.insert(contract, (config.clone(), Arc::clone(&json)));
                json
            }
        }
    }

    /// The full entry key for one pass of one scan.
    fn entry_key(scan_key: u64, pass: &str) -> u64 {
        fnv1a(fnv1a(FNV_OFFSET, &scan_key.to_le_bytes()), pass.as_bytes())
    }

    /// Looks up the cached findings of `pass` for `scan_key`.
    pub fn get(&self, scan_key: u64, pass: &str) -> Option<Vec<Finding>> {
        let key = Self::entry_key(scan_key, pass);
        if let Some(found) = self.mem.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(found.clone());
        }
        if let Some(dir) = &self.dir {
            if let Some(found) = read_entry(&entry_path(dir, key)) {
                self.mem
                    .lock()
                    .expect("cache lock")
                    .insert(key, found.clone());
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(found);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores the (pre-suppression) findings of `pass` for `scan_key`.
    ///
    /// Disk-tier write failures are swallowed: the cache is advisory,
    /// and a scan must never fail because a cache volume is full.
    pub fn put(&self, scan_key: u64, pass: &str, findings: &[Finding]) {
        let key = Self::entry_key(scan_key, pass);
        self.mem
            .lock()
            .expect("cache lock")
            .insert(key, findings.to_vec());
        if let Some(dir) = &self.dir {
            let _ = write_entry(&entry_path(dir, key), findings);
        }
    }
}

fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.slmc"))
}

fn encode(findings: &[Finding]) -> Vec<u8> {
    let mut w = Writer::header(MAGIC, VERSION);
    w.u32(findings.len() as u32);
    // An optional field: a presence byte, then the value when present.
    let put_opt = |w: &mut Writer, s: &Option<String>| {
        match s {
            Some(s) => w.u8(1).str(s),
            None => w.u8(0),
        };
    };
    for f in findings {
        w.str(f.kind.as_str()).str(f.severity.as_str()).str(&f.pass);
        match f.witness {
            Some(net) => w.u8(1).u32(net.0),
            None => w.u8(0),
        };
        w.u32(f.span.len() as u32);
        for s in &f.span {
            w.u32(s.net.0);
            put_opt(&mut w, &s.name);
        }
        w.str(&f.detail);
        put_opt(&mut w, &f.suppressed);
    }
    w.seal()
}

/// Reads an optional field written by [`encode`].
fn opt<T>(
    r: &mut Reader,
    read: impl FnOnce(&mut Reader) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    match r.u8("finding")? {
        0 => Ok(None),
        1 => read(r).map(Some),
        tag => Err(DecodeError::new(
            "finding",
            r.offset() - 1,
            format!("presence byte {tag}"),
        )),
    }
}

fn kind_from_str(s: &str) -> Option<CheckKind> {
    let all = [
        CheckKind::CombinationalLoop,
        CheckKind::DelayLineSensor,
        CheckKind::ExcessiveFanoutArray,
        CheckKind::TimingOverclock,
        CheckKind::ObservationDensity,
        CheckKind::ClockAsData,
        CheckKind::SensorLikeEndpoints,
        CheckKind::KnownBadMotif,
        CheckKind::ClockTaint,
        CheckKind::SwitchingActivity,
        CheckKind::ObservationBandwidth,
    ];
    all.into_iter().find(|k| k.as_str() == s)
}

fn severity_from_str(s: &str) -> Option<Severity> {
    [Severity::Info, Severity::Warn, Severity::Reject]
        .into_iter()
        .find(|v| v.as_str() == s)
}

fn decode(bytes: &[u8]) -> Result<Vec<Finding>, DecodeError> {
    let mut r = Reader::open(bytes, MAGIC, VERSION, "scan-cache entry")?;
    let unknown = |r: &Reader, what| DecodeError::new("finding", r.offset(), what);
    let mut findings = Vec::new();
    for _ in 0..r.u32("findings")? {
        let kind = kind_from_str(&r.str("finding")?).ok_or_else(|| unknown(&r, "unknown kind"))?;
        let severity =
            severity_from_str(&r.str("finding")?).ok_or_else(|| unknown(&r, "unknown severity"))?;
        let pass = r.str("finding")?;
        let witness = opt(&mut r, |r| r.u32("finding").map(NetId))?;
        let mut span = Vec::new();
        for _ in 0..r.u32("finding")? {
            span.push(SpanNet {
                net: NetId(r.u32("finding")?),
                name: opt(&mut r, |r| r.str("finding"))?,
            });
        }
        findings.push(Finding {
            kind,
            severity,
            pass,
            witness,
            span,
            detail: r.str("finding")?,
            suppressed: opt(&mut r, |r| r.str("finding"))?,
        });
    }
    r.seal()?;
    Ok(findings)
}

fn read_entry(path: &Path) -> Option<Vec<Finding>> {
    decode(&std::fs::read(path).ok()?).ok()
}

fn write_entry(path: &Path, findings: &[Finding]) -> std::io::Result<()> {
    // Every writer gets its own scratch file. A shared `.tmp` name
    // would let two concurrent writers of the same key interleave
    // truncate/write/rename on one path — the rename could publish a
    // torn half-write, or tear the scratch file out from under the
    // slower writer. With a unique name each rename atomically
    // publishes one complete, checksummed entry; last writer wins.
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq:x}", std::process::id()));
    std::fs::write(&tmp, encode(findings))?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::span_of;

    fn sample_findings() -> Vec<Finding> {
        let nl = slm_netlist::generators::c17();
        vec![
            Finding::new(
                CheckKind::ClockTaint,
                Severity::Reject,
                "clock-taint",
                "clock-rate taint on 9 outputs".into(),
            )
            .with_witness(NetId(3))
            .with_span(span_of(&nl, &[NetId(1), NetId(2)])),
            Finding::new(
                CheckKind::SensorLikeEndpoints,
                Severity::Info,
                "scoap-sensor",
                "sub-threshold".into(),
            ),
        ]
    }

    #[test]
    fn codec_round_trips() {
        let findings = sample_findings();
        let decoded = decode(&encode(&findings)).expect("round trip");
        assert_eq!(decoded, findings);
        assert_eq!(decode(&encode(&[])).expect("empty"), vec![]);
    }

    #[test]
    fn corrupt_entries_are_misses_not_errors() {
        let findings = sample_findings();
        let good = encode(&findings);
        // Any single-byte flip breaks the checksum (or the magic).
        for at in [0, MAGIC.len() + 1, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at {at} must not decode");
        }
        // Truncations at every boundary are rejected too.
        for len in [0, 3, MAGIC.len(), good.len() - 9, good.len() - 1] {
            assert!(decode(&good[..len]).is_err(), "truncation to {len}");
        }
        // An empty entry of the retired `SLMC1\n` format, FNV-1a sealed.
        let mut stale = b"SLMC1\n\0\0\0\0".to_vec();
        stale.extend_from_slice(&fnv1a(FNV_OFFSET, &stale).to_le_bytes());
        assert!(decode(&stale).is_err(), "a stale entry must not decode");
    }

    #[test]
    fn disk_tier_round_trips_and_survives_corruption() {
        let dir = std::env::temp_dir().join(format!("slm-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let findings = sample_findings();
        {
            let cache = ScanCache::with_dir(&dir).unwrap();
            cache.put(42, "clock-taint", &findings);
        }
        // A fresh cache instance reads the entry back from disk.
        let cache = ScanCache::with_dir(&dir).unwrap();
        assert_eq!(cache.get(42, "clock-taint"), Some(findings.clone()));
        assert_eq!(cache.get(42, "other-pass"), None);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Corrupt the file on disk: a fresh instance treats it as a miss.
        let key = ScanCache::entry_key(42, "clock-taint");
        let path = entry_path(&dir, key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let cache = ScanCache::with_dir(&dir).unwrap();
        assert_eq!(cache.get(42, "clock-taint"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The service admission path hammers one cache directory from
    /// many threads at once — concurrent cold writes and warm reads of
    /// the *same* key. Every read must observe either a miss or one
    /// complete entry (never torn bytes decoding to garbage), and once
    /// all writers finish the entry must be present and intact. Each
    /// thread uses a private `ScanCache` instance over the shared
    /// directory so every operation exercises the disk tier, not the
    /// in-memory map.
    #[test]
    fn disk_tier_survives_concurrent_same_key_traffic() {
        let dir = std::env::temp_dir().join(format!("slm-cache-hammer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let findings = sample_findings();
        let scan_key = 7u64;
        std::thread::scope(|scope| {
            for t in 0..8 {
                let dir = &dir;
                let findings = &findings;
                scope.spawn(move || {
                    for i in 0..50 {
                        let cache = ScanCache::with_dir(dir).unwrap();
                        if (t + i) % 2 == 0 {
                            cache.put(scan_key, "clock-taint", findings);
                        }
                        match cache.get(scan_key, "clock-taint") {
                            None => {}
                            Some(got) => {
                                assert_eq!(&got, findings, "a concurrent reader saw a torn entry")
                            }
                        }
                    }
                });
            }
        });
        // After the storm: the entry is present, complete, and no
        // scratch files were left behind by the unique-tmp protocol's
        // winners (a losing rename cannot exist — names are unique).
        let cache = ScanCache::with_dir(&dir).unwrap();
        assert_eq!(cache.get(scan_key, "clock-taint"), Some(findings.clone()));
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray scratch files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_key_tracks_netlist_and_config() {
        let cache = ScanCache::in_memory();
        let a = slm_netlist::generators::c17();
        let b = slm_netlist::generators::ripple_carry_adder(4).unwrap();
        let config = CheckerConfig::default();
        assert_eq!(cache.scan_key(&a, &config), cache.scan_key(&a, &config));
        assert_ne!(cache.scan_key(&a, &config), cache.scan_key(&b, &config));
        let tightened = CheckerConfig {
            scoap: crate::ScoapConfig {
                min_depth: 4,
                ..crate::ScoapConfig::default()
            },
            ..CheckerConfig::default()
        };
        assert_ne!(cache.scan_key(&a, &config), cache.scan_key(&a, &tightened));
    }

    /// One shared cache keys every config as a fresh cache does, in any
    /// order: configs sharing a contract but not the rest, contracts
    /// differing by one clock, and floats differing only in the sign
    /// of zero.
    #[test]
    fn memoised_config_bytes_key_like_a_fresh_render() {
        let nl = slm_netlist::generators::c17();
        let with = |clocks: &[&str], mhz: Option<f64>, ratio: f64| {
            let mut config = CheckerConfig::default();
            config.taint.declared_clocks = clocks.iter().map(|c| c.to_string()).collect();
            config.timing.clock_mhz = mhz;
            config.scoap.min_chain_ratio = ratio;
            config
        };
        let configs = [
            with(&[], None, 0.8),
            with(&[], None, 0.0),
            with(&[], None, -0.0),
            with(&["sense"], None, 0.8),
            with(&["sense", "clk"], None, 0.8),
            with(&["sense"], Some(300.0), 0.8),
            with(&[], Some(0.0), 0.8),
            with(&[], Some(-0.0), 0.8),
            with(&[], None, f64::NAN),
        ];
        let fresh: Vec<u64> = configs
            .iter()
            .map(|c| ScanCache::in_memory().scan_key(&nl, c))
            .collect();
        let shared = ScanCache::in_memory();
        let order = (0..configs.len()).chain((0..configs.len()).rev());
        for i in order.clone().chain(order) {
            assert_eq!(shared.scan_key(&nl, &configs[i]), fresh[i], "config {i}");
        }
        assert_ne!(fresh[1], fresh[2], "0.0 and -0.0 render apart");
        assert_ne!(fresh[6], fresh[7], "0.0 and -0.0 MHz render apart");
    }
}
