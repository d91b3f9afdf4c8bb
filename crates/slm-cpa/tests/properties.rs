//! Property-based tests for the CPA toolbox.

use proptest::prelude::*;
use slm_aes::soft;
use slm_cpa::{
    measurements_to_disclosure, CpaAttack, LastRoundModel, MultiByteCpa, ProgressPoint, TraceBatch,
    WelchTTest,
};
use slm_pdn::noise::Rng64;

/// `x` scaled by 8 about 1024 and rounded: Gaussian leakage as a sensor
/// count, non-negative for any `|x| < 128`.
fn count(x: f64) -> f64 {
    (1024.0 + 8.0 * x).round()
}

/// The samples the attack takes, staged as one batch.
fn batch_of(points: usize, traces: &[([u8; 16], Vec<f64>)]) -> TraceBatch {
    let mut batch = TraceBatch::with_capacity(points, traces.len());
    for (ct, x) in traces {
        batch.push(*ct, x);
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// CPA recovers a planted key from synthetic single-bit leakage for
    /// any key, target byte and bit.
    #[test]
    fn cpa_recovers_any_planted_key(key in any::<[u8; 16]>(),
                                    ct_byte in 0usize..16,
                                    bit in 0u8..8,
                                    seed in any::<u64>()) {
        let k10 = soft::key_expansion(&key)[10];
        let model = LastRoundModel { ct_byte, bit };
        let mut attack = CpaAttack::new(model, 1);
        let mut rng = Rng64::new(seed);
        for _ in 0..4000 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let ct = soft::encrypt(&key, &pt);
            let h = f64::from(u8::from(model.hypothesis(&ct, k10[ct_byte])));
            attack.add_trace(&ct, &[count(h + rng.normal_scaled(1.0))]);
        }
        let (best, peak) = CpaAttack::best_of(&attack.peak_correlations());
        prop_assert_eq!(best, k10[ct_byte]);
        prop_assert!(peak > 0.2, "peak = {peak}");
    }

    /// Correlations are invariant under affine transforms of the traces
    /// (CPA normalizes means and scales) that keep them counts.
    #[test]
    fn cpa_affine_invariant(scale in 1u32..20, offset in 0u32..20_000,
                            seed in any::<u64>()) {
        let key = [3u8; 16];
        let k10 = soft::key_expansion(&key)[10];
        let model = LastRoundModel::paper_target();
        let mut a1 = CpaAttack::new(model, 1);
        let mut a2 = CpaAttack::new(model, 1);
        let mut rng = Rng64::new(seed);
        for _ in 0..800 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let ct = soft::encrypt(&key, &pt);
            let h = f64::from(u8::from(model.hypothesis(&ct, k10[3])));
            let x = count(h + rng.normal_scaled(1.0));
            a1.add_trace(&ct, &[x]);
            a2.add_trace(&ct, &[x * f64::from(scale) + f64::from(offset)]);
        }
        let c1 = a1.correlations();
        let c2 = a2.correlations();
        for k in 0..256 {
            prop_assert!((c1[k][0] - c2[k][0]).abs() < 1e-9,
                "candidate {k}: {} vs {}", c1[k][0], c2[k][0]);
        }
    }

    /// |r| is always within [0, 1].
    #[test]
    fn correlation_bounded(seed in any::<u64>(), n in 10u32..300) {
        let model = LastRoundModel::paper_target();
        let mut attack = CpaAttack::new(model, 2);
        let mut rng = Rng64::new(seed);
        for _ in 0..n {
            let mut ct = [0u8; 16];
            rng.fill_bytes(&mut ct);
            attack.add_trace(&ct, &[count(rng.normal()), rng.below(1 << 16) as f64]);
        }
        for row in attack.correlations() {
            for r in row {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
            }
        }
    }

    /// MTD is consistent with the key's rank at each checkpoint: at and
    /// after the MTD checkpoint, the correct key has rank 0.
    #[test]
    fn mtd_consistent_with_ranks(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let key = 42u8;
        let progress: Vec<ProgressPoint> = (1..=10)
            .map(|i| {
                let mut peak_corr: Vec<f64> = (0..256).map(|_| rng.uniform() * 0.1).collect();
                if i > 5 {
                    peak_corr[key as usize] = 0.5; // stabilizes from checkpoint 6
                }
                ProgressPoint {
                    traces: i * 100,
                    peak_corr,
                }
            })
            .collect();
        let mtd = measurements_to_disclosure(&progress, key);
        if let Some(at) = mtd {
            for p in &progress {
                let (traces, rank) = (p.traces, CpaAttack::rank_in(&p.peak_corr, key));
                if traces >= at {
                    prop_assert_eq!(rank, 0, "rank nonzero after MTD at trace {}", traces);
                }
            }
        }
    }

    /// The multi-byte attack agrees byte for byte with sixteen
    /// independent single-byte attacks: the same leading candidate and
    /// the same rank of the true key byte.
    #[test]
    fn multibyte_matches_single(seed in any::<u64>()) {
        let key = [9u8; 16];
        let k10 = soft::key_expansion(&key)[10];
        let mut single: Vec<CpaAttack> = (0..16)
            .map(|b| CpaAttack::new(LastRoundModel { ct_byte: b, bit: 0 }, 1))
            .collect();
        let mut rng = Rng64::new(seed);
        let mut traces = Vec::new();
        for _ in 0..300 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let ct = soft::encrypt(&key, &pt);
            let x = count(rng.normal());
            for s in &mut single {
                s.add_trace(&ct, &[x]);
            }
            traces.push((ct, vec![x]));
        }
        let mut multi = MultiByteCpa::new(0, 1);
        multi.add_batch(&batch_of(1, &traces)).unwrap();
        let peaks = multi.peak_correlations(1);
        let recovered = MultiByteCpa::round_key_of(&peaks);
        for (b, s) in single.iter().enumerate() {
            let single_peaks = s.peak_correlations();
            prop_assert_eq!(recovered[b], CpaAttack::best_of(&single_peaks).0);
            prop_assert_eq!(
                CpaAttack::rank_in(&peaks[b], k10[b]),
                CpaAttack::rank_in(&single_peaks, k10[b])
            );
        }
    }

    /// Welch t of identical populations stays small; a planted shift is
    /// detected.
    #[test]
    fn welch_t_detects_shift(shift in 0.3f64..2.0, seed in any::<u64>()) {
        let mut t = WelchTTest::new(1);
        let mut rng = Rng64::new(seed);
        for _ in 0..4000 {
            t.add(false, &[rng.normal()]);
            t.add(true, &[rng.normal() + shift]);
        }
        prop_assert!(t.max_abs_t() > 4.5, "t = {}", t.max_abs_t());
    }

    /// A sharded campaign merged from parallel partials is bit-identical
    /// (`==`) to the serial shard-by-shard run, for any shard size,
    /// trace budget and worker count. Shards are the unit of
    /// determinism: each shard's records depend only on
    /// `mix_seed(master, shard.index)`, so the worker count can never
    /// leak into the result.
    #[test]
    fn sharded_campaign_matches_serial(master in any::<u64>(),
                                       total in 1u64..600,
                                       shard_size in 1u64..200,
                                       workers in 1usize..9) {
        let model = LastRoundModel::paper_target();
        let plan = slm_par::ShardPlan::new(total, shard_size);
        let shards = plan.shards();
        let capture = |shard: &slm_par::ShardSpec| {
            let mut part = CpaAttack::new(model, 2);
            let mut rng = Rng64::new(slm_par::mix_seed(master, shard.index as u64));
            for _ in 0..shard.traces {
                let mut ct = [0u8; 16];
                rng.fill_bytes(&mut ct);
                let x = [rng.below(64) as f64, rng.below(1 << 16) as f64];
                part.add_trace(&ct, &x);
            }
            part
        };

        // serial reference: shards captured and absorbed in index order
        let mut serial = CpaAttack::new(model, 2);
        for shard in &shards {
            serial.merge(&capture(shard));
        }

        // parallel run: capture on `workers` threads, merge in shard order
        let partials = slm_par::par_map(workers, &shards, capture);
        let mut merged = CpaAttack::new(model, 2);
        for part in &partials {
            merged.merge(part);
        }

        prop_assert_eq!(&merged, &serial);
        prop_assert_eq!(merged.correlations(), serial.correlations());
        prop_assert_eq!(merged.traces(), total);
    }

    /// Merge is commutative and associative on the accumulator state:
    /// every sum is an integer, so the algebra holds bit-identically
    /// for any counts, up to `u16::MAX`.
    #[test]
    fn merge_is_commutative_and_associative(seed in any::<u64>(),
                                            na in 1usize..120,
                                            nb in 1usize..120,
                                            nc in 1usize..120) {
        let model = LastRoundModel::paper_target();
        let mut rng = Rng64::new(seed);
        let mut fill = |n: usize| {
            let mut a = CpaAttack::new(model, 2);
            for _ in 0..n {
                let mut ct = [0u8; 16];
                rng.fill_bytes(&mut ct);
                let x = [rng.below(64) as f64, rng.below(1 << 16) as f64];
                a.add_trace(&ct, &x);
            }
            a
        };
        let (a, b, c) = (fill(na), fill(nb), fill(nc));

        // commutativity: a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // identity: merging an empty accumulator is a no-op
        let mut with_empty = a.clone();
        with_empty.merge(&CpaAttack::new(model, 2));
        prop_assert_eq!(&with_empty, &a);
    }

    /// The SoA batch path absorbs traces bit-identically to the scalar
    /// one-at-a-time path: `==` on the full accumulator state, for
    /// counts up to `u16::MAX`. Batch boundaries are drawn at
    /// arbitrary positions to exercise partial batches, singleton
    /// batches and empty flushes.
    #[test]
    fn soa_batch_matches_scalar_absorption(seed in any::<u64>(),
                                           total in 1usize..400,
                                           batch_size in 1usize..70,
                                           points in 1usize..4) {
        let model = LastRoundModel::paper_target();
        let mut scalar = CpaAttack::new(model, points);
        let mut batched = CpaAttack::new(model, points);
        let mut rng = Rng64::new(seed);
        let mut batch = TraceBatch::with_capacity(points, batch_size);
        for t in 0..total {
            let mut ct = [0u8; 16];
            rng.fill_bytes(&mut ct);
            let x: Vec<f64> = (0..points)
                .map(|_| rng.below(1 << 16) as f64)
                .collect();
            scalar.add_trace(&ct, &x);
            batch.push(ct, &x);
            if batch.len() == batch_size || t + 1 == total {
                batched.add_batch(&batch).unwrap();
                batch.clear();
            }
        }
        prop_assert_eq!(&batched, &scalar);
        prop_assert_eq!(batched.correlations(), scalar.correlations());
        prop_assert_eq!(batched.traces(), total as u64);
    }

    /// The sixteen-byte evaluation is bit-identical at every worker
    /// count.
    #[test]
    fn multibyte_key_is_worker_count_invariant(seed in any::<u64>(), traces in 1usize..400) {
        let mut rng = Rng64::new(seed);
        let traces: Vec<([u8; 16], Vec<f64>)> = (0..traces)
            .map(|_| {
                let mut ct = [0u8; 16];
                rng.fill_bytes(&mut ct);
                (ct, vec![count(rng.normal())])
            })
            .collect();
        let mut multi = MultiByteCpa::new(0, 1);
        multi.add_batch(&batch_of(1, &traces)).unwrap();
        let bits = |peaks: Vec<[f64; 256]>| -> Vec<u64> {
            peaks.iter().flatten().map(|p| p.to_bits()).collect()
        };
        let serial = bits(multi.peak_correlations(1));
        for workers in 2..=8 {
            prop_assert_eq!(bits(multi.peak_correlations(workers)), serial.clone(), "{} workers", workers);
        }
    }
}

/// The reference evaluation: for each candidate `k`, fold every
/// non-empty bin `c` with `hyp[c ^ k]` set into that candidate's point
/// sums, in ascending bin order. Rebuilt from the public checkpoint so
/// it sees exactly the accumulator the attack evaluates.
fn reference_correlations(attack: &CpaAttack) -> Vec<Vec<f64>> {
    let cp = attack.checkpoint();
    let points = cp.points;
    let n = cp.traces as f64;
    let mut total_sum = vec![0.0; points];
    for c in 0..256 {
        for (acc, &x) in total_sum
            .iter_mut()
            .zip(&cp.bin_sum[c * points..(c + 1) * points])
        {
            *acc += x as f64;
        }
    }
    let denom_x: Vec<f64> = (0..points)
        .map(|p| (n * cp.sum_sq[p] as f64 - total_sum[p] * total_sum[p]).sqrt())
        .collect();
    // Entry `v`: the hypothesis for a ciphertext byte `v` under
    // candidate 0, so candidate `k` maps bin `c` to `hyp[c ^ k]`.
    let hyp: Vec<bool> = (0..=255u8)
        .map(|v| {
            let mut ct = [0u8; 16];
            ct[cp.model.ct_byte] = v;
            cp.model.hypothesis(&ct, 0)
        })
        .collect();
    (0..256usize)
        .map(|k| {
            let mut n1 = 0u64;
            let mut s1 = vec![0.0; points];
            for c in 0..256usize {
                if cp.bin_count[c] == 0 || !hyp[c ^ k] {
                    continue;
                }
                n1 += cp.bin_count[c];
                for (acc, &x) in s1.iter_mut().zip(&cp.bin_sum[c * points..(c + 1) * points]) {
                    *acc += x as f64;
                }
            }
            let n1f = n1 as f64;
            let denom_h = (n1f * (n - n1f)).sqrt();
            (0..points)
                .map(|p| {
                    let denom = denom_h * denom_x[p];
                    if denom > 0.0 {
                        (n * s1[p] - n1f * total_sum[p]) / denom
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The candidate evaluation equals the reference per-candidate
    /// fold bit for bit (a `-0.0` for a `+0.0` fails, as does a NaN),
    /// for sparse bins (most of the 256 empty at small trace counts,
    /// or ciphertext bytes drawn from a few values) and any attacked
    /// byte and bit. Samples are counts in two regimes: small, as TDC
    /// depths and Hamming weights are, and near `u16::MAX`.
    #[test]
    fn correlations_match_reference_fold(seed in any::<u64>(),
                                         traces in 0usize..600,
                                         points in 1usize..5,
                                         ct_byte in 0usize..16,
                                         bit in 0u8..8,
                                         byte_values in 1u64..257,
                                         near_max in any::<bool>()) {
        let mut rng = Rng64::new(seed);
        let mut attack = CpaAttack::new(LastRoundModel { ct_byte, bit }, points);
        let mut x = vec![0.0; points];
        for _ in 0..traces {
            let mut ct = [0u8; 16];
            rng.fill_bytes(&mut ct);
            ct[ct_byte] = rng.below(byte_values) as u8;
            for slot in x.iter_mut() {
                let c = rng.below(72);
                *slot = if near_max { 65_535 - c } else { c } as f64;
            }
            attack.add_trace(&ct, &x);
        }
        let got = attack.correlations();
        let want = reference_correlations(&attack);
        prop_assert_eq!(got.len(), want.len());
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            let g: Vec<u64> = g.iter().map(|r| r.to_bits()).collect();
            let w: Vec<u64> = w.iter().map(|r| r.to_bits()).collect();
            prop_assert_eq!(g, w, "candidate {}", k);
        }
    }
}
