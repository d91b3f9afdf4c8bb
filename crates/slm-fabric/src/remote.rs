//! The complete Fig. 2 dataflow: workstation ↔ UART ↔ FPGA.
//!
//! [`RemoteSession`] runs the fabric behind the framed UART transport
//! exactly as the paper's setup does: the host sends a plaintext frame;
//! the device encrypts while the sensors sample, buffers the capture in
//! BRAM, and returns a frame with the ciphertext and the recorded
//! trace. The host-side accessor decodes it back into a
//! [`CaptureRecord`]. Attacks driven through this path exercise every
//! transport component (framing, CRCs, sequence numbers, BRAM
//! capacity) and account for wire time.
//!
//! [`CampaignDriver`] wraps a session in the resilient capture loop a
//! real rig needs on a noisy wire: bounded retries with exponential
//! backoff (charged to simulated wire time), per-trace validation
//! against the reference AES model, and quarantine of records that
//! arrive intact but wrong.

use crate::bram::BramCapture;
use crate::error::{FabricError, TransportError};
use crate::scenario::{CaptureRecord, FabricConfig, MultiTenantFabric};
use crate::uart::{LinkStats, UartFrame, UartLink};
use crate::wire_faults::{WireFaultPlan, WireFaultStats};
use slm_obs::Obs;
use slm_sensors::SensorSample;
use std::ops::Range;

/// A workstation-to-FPGA attack session over the UART.
#[derive(Debug, Clone)]
pub struct RemoteSession {
    fabric: MultiTenantFabric,
    link: UartLink,
    bram: BramCapture,
    window: Range<usize>,
    endpoints: Vec<usize>,
    next_seq: u8,
}

impl RemoteSession {
    /// Builds the fabric and transport. `endpoints` selects which benign
    /// endpoints the device firmware packs into each trace frame (empty
    /// = TDC only), and the capture window defaults to the final-round
    /// window.
    ///
    /// # Errors
    ///
    /// Propagates fabric construction failures.
    pub fn new(config: &FabricConfig, endpoints: Vec<usize>) -> Result<Self, FabricError> {
        Self::build(config, endpoints, None)
    }

    /// Like [`RemoteSession::new`], but mounts a seeded [`WireFaultPlan`]
    /// on the wire so every frame in both directions runs through the
    /// fault model.
    ///
    /// # Errors
    ///
    /// Propagates fabric construction failures.
    pub fn with_fault_plan(
        config: &FabricConfig,
        endpoints: Vec<usize>,
        plan: WireFaultPlan,
    ) -> Result<Self, FabricError> {
        Self::build(config, endpoints, Some(plan))
    }

    fn build(
        config: &FabricConfig,
        endpoints: Vec<usize>,
        plan: Option<WireFaultPlan>,
    ) -> Result<Self, FabricError> {
        let fabric = MultiTenantFabric::new(config)?;
        let window = fabric.last_round_window();
        let link = match plan {
            Some(plan) => UartLink::with_faults(921_600, plan),
            None => UartLink::new(921_600),
        };
        Ok(RemoteSession {
            fabric,
            link,
            bram: BramCapture::single_bram36(),
            window,
            endpoints,
            next_seq: 0,
        })
    }

    /// The underlying fabric (ground-truth access for evaluation).
    pub fn fabric(&self) -> &MultiTenantFabric {
        &self.fabric
    }

    /// Seconds of UART wire time consumed so far — the real-world cost
    /// of the campaign, including retry backoff.
    pub fn wire_time_s(&self) -> f64 {
        self.link.elapsed_s()
    }

    /// Resynchronization accounting for the link scanner.
    pub fn link_stats(&self) -> &LinkStats {
        self.link.stats()
    }

    /// Fault accounting, when a fault plan is mounted.
    pub fn fault_stats(&self) -> Option<&WireFaultStats> {
        self.link.fault_stats()
    }

    /// Discards any bytes in flight (between retry attempts).
    fn flush_wire(&mut self) {
        self.link.flush();
    }

    /// Charges idle seconds (e.g. retry backoff) to the wire clock.
    pub fn charge_idle(&mut self, seconds: f64) {
        self.link.charge_idle(seconds);
    }

    /// One full host-side round trip: send a plaintext, receive the
    /// ciphertext and windowed capture. Single attempt — no retries;
    /// wrap the session in a [`CampaignDriver`] for the resilient loop.
    ///
    /// # Errors
    ///
    /// Typed [`TransportError`]s via [`FabricError::Transport`]:
    /// [`TransportError::NoResponse`] when the response is lost or
    /// corrupt, [`TransportError::SeqMismatch`] when only stale
    /// responses arrive, [`TransportError::MalformedResponse`] when a
    /// CRC-clean frame fails to parse.
    pub fn host_encrypt(&mut self, plaintext: [u8; 16]) -> Result<CaptureRecord, FabricError> {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.link
            .host_send(&UartFrame::new(seq, plaintext.to_vec()));
        self.device_service();

        // Drain responses; stale sequence numbers (from an earlier
        // attempt whose reply limped in late) are discarded.
        let mut stale: Option<u8> = None;
        while let Some(frame) = self.link.host_recv() {
            if frame.seq == seq {
                return Self::decode_response(&frame, self.endpoints.len());
            }
            stale = Some(frame.seq);
        }
        Err(match stale {
            Some(got) => TransportError::SeqMismatch { expected: seq, got }.into(),
            None => TransportError::NoResponse.into(),
        })
    }

    /// The device firmware loop body: read every complete request
    /// frame, run the encryption with capture, stage the result through
    /// BRAM, send the response frame echoing the request's sequence
    /// number. A request is exactly one 16-byte plaintext. Requests that
    /// arrive corrupt never parse as frames, and frames with any other
    /// payload or a bad geometry are dropped — the device stays up and
    /// the host's retry covers the loss.
    fn device_service(&mut self) {
        while let Some(frame) = self.link.fpga_recv() {
            let Ok(pt) = <[u8; 16]>::try_from(frame.payload.as_slice()) else {
                continue;
            };
            if let Some(body) = self.encode_record(pt) {
                self.link.fpga_send(&UartFrame::new(frame.seq, body));
            }
        }
    }

    /// One capture, staged through BRAM and serialized as a response
    /// body: `ct | n_samples u8 | words_per_sample u8 | words LE`.
    /// `None` when the capture overflows the BRAM (the request is
    /// dropped; a refused write leaves the staging buffer empty).
    fn encode_record(&mut self, pt: [u8; 16]) -> Option<Vec<u8>> {
        let rec = self
            .fabric
            .encrypt_windowed(pt, self.window.clone(), &self.endpoints);

        // Stage through BRAM exactly as the on-chip design would: the
        // capture is serialized to 64-bit words, written, then drained
        // for transmission.
        let mut words: Vec<u64> = Vec::new();
        for (s, &tdc) in rec.benign.iter().zip(&rec.tdc) {
            words.push(u64::from(tdc));
            words.extend_from_slice(&s.bits);
        }
        if self.bram.push(&words).is_err() {
            return None;
        }
        let staged = self.bram.drain();

        let mut body = Vec::with_capacity(16 + 2 + staged.len() * 8);
        body.extend_from_slice(&rec.ciphertext);
        body.push(rec.benign.len() as u8);
        let words_per_sample = 1 + self.endpoints.len().div_ceil(64);
        body.push(words_per_sample as u8);
        for w in staged {
            body.extend_from_slice(&w.to_le_bytes());
        }
        Some(body)
    }

    /// Decodes a `ct | n_samples | words_per_sample | words` response
    /// body, which must fill the payload exactly.
    fn decode_response(
        frame: &UartFrame,
        endpoint_count: usize,
    ) -> Result<CaptureRecord, FabricError> {
        let malformed =
            |detail: String| -> FabricError { TransportError::MalformedResponse { detail }.into() };
        let p = &frame.payload;
        if p.len() < 18 {
            return Err(malformed(format!(
                "short response frame ({} bytes)",
                p.len()
            )));
        }
        let mut ciphertext = [0u8; 16];
        ciphertext.copy_from_slice(&p[..16]);
        let n_samples = usize::from(p[16]);
        let words_per_sample = usize::from(p[17]);
        if words_per_sample == 0 {
            return Err(malformed("zero words per sample".into()));
        }
        let expected = 18 + n_samples * words_per_sample * 8;
        if p.len() != expected {
            return Err(malformed(format!(
                "response length {} != expected {expected}",
                p.len()
            )));
        }
        let mut benign = Vec::with_capacity(n_samples);
        let mut tdc = Vec::with_capacity(n_samples);
        let mut pos = 18;
        for _ in 0..n_samples {
            let w = u64::from_le_bytes(p[pos..pos + 8].try_into().expect("8 bytes"));
            tdc.push(w as u32);
            pos += 8;
            let mut bits = Vec::with_capacity(words_per_sample - 1);
            for _ in 0..words_per_sample - 1 {
                bits.push(u64::from_le_bytes(
                    p[pos..pos + 8].try_into().expect("8 bytes"),
                ));
                pos += 8;
            }
            benign.push(SensorSample {
                bits,
                len: endpoint_count,
            });
        }
        Ok(CaptureRecord {
            ciphertext,
            benign,
            tdc,
        })
    }
}

/// Retry budget and backoff schedule for a capture campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RetryPolicy {
    /// Attempts per trace, including the first (must be ≥ 1).
    max_attempts: u32,
    /// Backoff before the first retry, seconds.
    base_backoff_s: f64,
    /// Multiplier applied to the backoff after each retry.
    backoff_factor: f64,
    /// Backoff ceiling, seconds.
    max_backoff_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_s: 0.005,
            backoff_factor: 2.0,
            max_backoff_s: 0.1,
        }
    }
}

/// Campaign-level accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CampaignStats {
    /// Capture requests issued by the caller.
    pub requested: u64,
    /// Validated records delivered.
    pub delivered: u64,
    /// Retry attempts beyond the first, summed over all requests.
    pub retries: u64,
    /// Records quarantined by validation.
    pub quarantined: u64,
    /// Total backoff charged to the wire clock, seconds.
    pub backoff_s: f64,
}

/// Drives capture requests through a [`RemoteSession`] resiliently.
///
/// Every delivered record is validated before the caller sees it: the
/// ciphertext is cross-checked against the reference software AES (the
/// evaluation rig knows the victim key — this is the standard
/// ground-truth check during characterization) and the trace geometry
/// must be self-consistent. A record that fails validation is
/// quarantined — counted in [`CampaignStats::quarantined`], never
/// analyzed — and the
/// request is retried. Transport faults retry with exponential backoff;
/// the backoff is charged to the simulated wire clock so campaign cost
/// stays honest.
#[derive(Debug, Clone)]
pub struct CampaignDriver {
    session: RemoteSession,
    policy: RetryPolicy,
    key: [u8; 16],
    stats: CampaignStats,
    obs: Obs,
}

impl CampaignDriver {
    /// Wraps a session with the default retry policy: four attempts
    /// per trace, backoff from 5 ms doubling up to 100 ms.
    pub fn new(session: RemoteSession) -> Self {
        Self::with_policy(session, RetryPolicy::default())
    }

    /// Wraps a session with an explicit retry policy.
    fn with_policy(session: RemoteSession, policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        let key = session.fabric().config().aes_key;
        CampaignDriver {
            session,
            policy,
            key,
            stats: CampaignStats::default(),
            obs: Obs::null(),
        }
    }

    /// Mounts a metrics recorder; the default is the null recorder.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Captures one validated trace, retrying transport faults and
    /// quarantining invalid records along the way.
    ///
    /// # Errors
    ///
    /// [`TransportError::RetriesExhausted`] (wrapped in
    /// [`FabricError::Transport`]) when the retry budget runs out;
    /// non-transport fabric errors propagate immediately.
    pub fn capture(&mut self, plaintext: [u8; 16]) -> Result<CaptureRecord, FabricError> {
        let _span = self.obs.span("campaign.capture");
        let wire_base = self.obs.enabled().then(|| self.wire_counters());
        let result = self.capture_inner(plaintext);
        if let Some(base) = wire_base {
            // Link/fault/PDN accounting lives in cumulative session
            // counters; exporting the per-capture delta keeps the
            // metrics additive when forked frames are merged.
            let now = self.wire_counters();
            self.obs
                .add("uart.resyncs", now.resyncs.saturating_sub(base.resyncs));
            self.obs.add(
                "uart.bytes_discarded",
                now.bytes_discarded.saturating_sub(base.bytes_discarded),
            );
            self.obs
                .add("faults.injected", now.faults.saturating_sub(base.faults));
            let t = self.session.fabric().pdn_telemetry();
            self.obs.gauge("pdn.v_min", t.v_min);
            self.obs.gauge("pdn.v_max", t.v_max);
            self.obs
                .gauge("pdn.settled_streak", t.settled_streak as f64);
        }
        result
    }

    /// The retry/validate/quarantine loop behind [`CampaignDriver::capture`].
    fn capture_inner(&mut self, plaintext: [u8; 16]) -> Result<CaptureRecord, FabricError> {
        self.stats.requested += 1;
        self.obs.incr("campaign.requested");
        let mut backoff = self.policy.base_backoff_s;
        let mut last: TransportError = TransportError::NoResponse;
        for attempt in 1..=self.policy.max_attempts {
            if attempt > 1 {
                // Let the line settle: discard half-delivered bytes and
                // charge the wait to the wire clock.
                self.session.flush_wire();
                self.session.charge_idle(backoff);
                self.stats.backoff_s += backoff;
                self.obs.incr("campaign.retries");
                self.obs.observe("campaign.backoff_s", backoff);
                backoff = (backoff * self.policy.backoff_factor).min(self.policy.max_backoff_s);
                self.stats.retries += 1;
            }
            let attempt_result = {
                let _attempt_span = self.obs.span("fabric.host_encrypt");
                self.obs.incr("fabric.requests");
                self.session.host_encrypt(plaintext)
            };
            match attempt_result {
                Ok(rec) => match self.validate(&rec, &plaintext) {
                    Ok(()) => {
                        self.stats.delivered += 1;
                        self.obs.incr("campaign.delivered");
                        return Ok(rec);
                    }
                    Err(error) => {
                        self.stats.quarantined += 1;
                        self.obs.incr("campaign.quarantined");
                        last = error;
                    }
                },
                Err(FabricError::Transport(t)) if t.retryable() => last = t,
                Err(fatal) => return Err(fatal),
            }
        }
        Err(TransportError::RetriesExhausted {
            attempts: self.policy.max_attempts,
            last: Box::new(last),
        }
        .into())
    }

    /// Cumulative link-layer counters used for per-capture deltas.
    fn wire_counters(&self) -> WireCounters {
        let link = self.session.link_stats();
        WireCounters {
            resyncs: link.resyncs,
            bytes_discarded: link.bytes_discarded,
            faults: self
                .session
                .fault_stats()
                .map_or(0, WireFaultStats::total_faults),
        }
    }

    /// Ground-truth validation of a decoded record: ciphertext must
    /// match the reference AES, and the trace geometry must be
    /// self-consistent. Catches silent desync — a structurally valid
    /// frame carrying the wrong encryption.
    fn validate(&self, rec: &CaptureRecord, pt: &[u8; 16]) -> Result<(), TransportError> {
        let expected = slm_aes::soft::encrypt(&self.key, pt);
        if rec.ciphertext != expected {
            return Err(TransportError::ValidationFailed {
                detail: "ciphertext disagrees with reference AES".into(),
            });
        }
        if rec.tdc.is_empty() || rec.tdc.len() != rec.benign.len() {
            return Err(TransportError::ValidationFailed {
                detail: format!(
                    "inconsistent geometry: {} tdc vs {} benign samples",
                    rec.tdc.len(),
                    rec.benign.len()
                ),
            });
        }
        Ok(())
    }

    /// The wrapped session.
    pub fn session(&self) -> &RemoteSession {
        &self.session
    }

    /// Campaign accounting so far.
    pub fn stats(&self) -> &CampaignStats {
        &self.stats
    }
}

/// Snapshot of the session's cumulative wire counters, taken before
/// and after a capture to compute per-capture deltas.
#[derive(Debug, Clone, Copy)]
struct WireCounters {
    resyncs: u64,
    bytes_discarded: u64,
    faults: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::BenignCircuit;
    use slm_aes::soft;

    fn config() -> FabricConfig {
        FabricConfig {
            benign: BenignCircuit::DualC6288,
            ..FabricConfig::default()
        }
    }

    fn session(endpoints: Vec<usize>) -> RemoteSession {
        RemoteSession::new(&config(), endpoints).unwrap()
    }

    #[test]
    fn remote_capture_equals_local_capture() {
        let endpoints: Vec<usize> = (0..16).collect();
        let mut remote = session(endpoints.clone());
        let mut local = MultiTenantFabric::new(&config()).unwrap();
        let window = local.last_round_window();
        let pt = [0x3c; 16];
        let via_uart = remote.host_encrypt(pt).unwrap();
        let direct = local.encrypt_windowed(pt, window, &endpoints);
        assert_eq!(via_uart.ciphertext, direct.ciphertext);
        assert_eq!(via_uart.tdc, direct.tdc);
        assert_eq!(via_uart.benign.len(), direct.benign.len());
        for (a, b) in via_uart.benign.iter().zip(&direct.benign) {
            assert_eq!(a.bits, b.bits);
            assert_eq!(a.len, b.len);
        }
    }

    #[test]
    fn ciphertexts_are_correct_over_the_wire() {
        let mut remote = session(vec![]);
        let key = remote.fabric().config().aes_key;
        for i in 0..4u8 {
            let pt = [i.wrapping_mul(31); 16];
            let rec = remote.host_encrypt(pt).unwrap();
            assert_eq!(rec.ciphertext, soft::encrypt(&key, &pt));
        }
    }

    #[test]
    fn wire_time_accumulates() {
        let mut remote = session((0..8).collect());
        assert_eq!(remote.wire_time_s(), 0.0);
        let _ = remote.host_encrypt([1; 16]).unwrap();
        let t1 = remote.wire_time_s();
        assert!(t1 > 0.0);
        let _ = remote.host_encrypt([2; 16]).unwrap();
        assert!(
            remote.wire_time_s() > 1.9 * t1,
            "each trace costs wire time"
        );
    }

    #[test]
    fn stalled_response_is_a_typed_no_response() {
        let plan = WireFaultPlan::new(11).with_stall(1.0);
        let mut remote = RemoteSession::with_fault_plan(&config(), vec![], plan).unwrap();
        let err = remote.host_encrypt([5; 16]).unwrap_err();
        assert!(matches!(
            err,
            FabricError::Transport(TransportError::NoResponse)
        ));
        assert!(err.retryable());
    }

    #[test]
    fn driver_retries_through_a_lossy_wire() {
        // Drop ~40% of frames: every trace still gets through within the
        // default 4-attempt budget with overwhelming probability.
        let plan = WireFaultPlan::new(99).with_stall(0.4);
        let remote = RemoteSession::with_fault_plan(&config(), vec![], plan).unwrap();
        let key = remote.fabric().config().aes_key;
        let mut driver = CampaignDriver::new(remote);
        let mut delivered = 0;
        for i in 0..20u8 {
            let pt = [i; 16];
            match driver.capture(pt) {
                Ok(rec) => {
                    assert_eq!(rec.ciphertext, soft::encrypt(&key, &pt));
                    delivered += 1;
                }
                Err(e) => assert!(
                    matches!(
                        e,
                        FabricError::Transport(TransportError::RetriesExhausted { .. })
                    ),
                    "unexpected error {e}"
                ),
            }
        }
        assert!(delivered >= 18, "only {delivered}/20 delivered");
        let stats = driver.stats();
        assert!(stats.retries > 0, "a 40% stall rate must force retries");
        assert!(stats.backoff_s > 0.0);
        // Backoff shows up in wire time.
        assert!(driver.session().wire_time_s() > stats.backoff_s);
    }

    #[test]
    fn driver_on_clean_wire_never_retries() {
        let mut driver = CampaignDriver::new(session(vec![]));
        for i in 0..5u8 {
            driver.capture([i; 16]).unwrap();
        }
        let stats = driver.stats();
        assert_eq!(stats.requested, 5);
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.quarantined, 0);
    }

    #[test]
    fn driver_records_campaign_metrics() {
        let obs = Obs::memory();
        let mut driver = CampaignDriver::new(session((0..4).collect())).with_obs(obs.clone());
        for i in 0..5u8 {
            driver.capture([i; 16]).unwrap();
        }
        let frame = obs.snapshot();
        assert_eq!(frame.counter("campaign.requested"), 5);
        assert_eq!(frame.counter("campaign.delivered"), 5);
        assert_eq!(frame.counter("fabric.requests"), 5);
        assert_eq!(frame.counter("campaign.retries"), 0);
        assert_eq!(frame.spans["campaign.capture"].count, 5);
        assert_eq!(frame.spans["fabric.host_encrypt"].count, 5);
        let v_min = frame.gauges["pdn.v_min"];
        assert!(v_min.last < 1.0, "encryption load droops the rail");
        assert_eq!(v_min.count, 5);
    }

    #[test]
    fn retries_exhausted_is_fatal_and_typed() {
        // A wire that always stalls exhausts any budget.
        let plan = WireFaultPlan::new(1).with_stall(1.0);
        let remote = RemoteSession::with_fault_plan(&config(), vec![], plan).unwrap();
        let mut driver = CampaignDriver::with_policy(
            remote,
            RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
        );
        let err = driver.capture([0; 16]).unwrap_err();
        match &err {
            FabricError::Transport(TransportError::RetriesExhausted { attempts, last }) => {
                assert_eq!(*attempts, 3);
                assert!(matches!(**last, TransportError::NoResponse));
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        assert!(!err.retryable());
        assert_eq!(driver.stats().retries, 2);
    }
}
