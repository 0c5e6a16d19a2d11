//! ISA path selection and the vectorized sampling kernels behind it.
//!
//! Graph rounds are sampler-bound: the per-round cost of the PULL model is
//! dominated by uniform index draws (Lemire multiply-shift) and alias-table
//! probes, not by protocol math. This module owns the workspace's answer —
//! three interchangeable kernel tiers, selected once per process:
//!
//! * [`IsaPath::Scalar`] — the reference loops, structured exactly like the
//!   original per-draw code. Every other tier is defined as "bit-identical
//!   to this".
//! * [`IsaPath::Swar`] — branchless integer reformulations on plain `u64`
//!   arithmetic, unrolled so the compiler can autovectorize at baseline
//!   x86-64 (SSE2) width. This is also the portable fallback for every
//!   non-x86_64 target.
//! * [`IsaPath::Avx2`] — explicit stable `core::arch::x86_64` intrinsics
//!   (8 Lemire lanes or 4 alias draws per iteration), used only when the
//!   host reports AVX2 at runtime (`is_x86_feature_detected!`).
//!
//! # The stream contract
//!
//! **The chosen path never enters the random stream.** Every kernel consumes
//! the same RNG words in the same order and produces bit-identical outputs;
//! the tiers differ only in how many draws they decide per iteration.
//! Trajectories are therefore bit-identical across forced paths per
//! `(seed, mode, storage, shard count)` — docs/DETERMINISM.md carries the
//! contract clause, `tests/simd_stream_identity.rs` the matrix that pins it,
//! and CI byte-diffs trajectory dumps under `FET_SIMD=scalar` vs
//! `FET_SIMD=avx2`.
//!
//! The alias probe equivalence is exact, not approximate: the scalar probe
//! accepts iff `(y >> 11) · 2⁻⁵³ < prob[i]` with both sides f64, and
//! multiplying by `2⁵³` (a power of two — exact scaling) turns that into the
//! integer compare `(y >> 11) < ceil(prob[i] · 2⁵³)`, which is what the SWAR
//! and AVX2 tiers evaluate. Both sides are below `2⁵⁴`, so the AVX2 *signed*
//! 64-bit compare is safe.
//!
//! # Selection
//!
//! [`active_path`] resolves once (atomically cached): a programmatic
//! [`force_path`] override beats the `FET_SIMD=scalar|swar|avx2` environment
//! variable, which beats runtime detection (AVX2 when available, SWAR
//! otherwise). A misspelled value, or `avx2` forced on a host without
//! AVX2, never silently falls back: [`env_override`] reports it as an
//! error, which `SimulationBuilder::build` returns before the run starts,
//! and [`active_path`] panics on it — CI guards the forced leg with a
//! cpuinfo check. Building with `--cfg fet_no_simd` compiles the
//! intrinsics out entirely (the non-x86_64 story, checkable from an
//! x86_64 host).

use std::sync::atomic::{AtomicU8, Ordering};

/// One kernel tier. See the module docs for what each path means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaPath {
    /// Reference per-draw loops (the original code paths).
    Scalar,
    /// Branchless integer kernels on plain `u64` words (portable).
    Swar,
    /// Explicit AVX2 intrinsics (x86_64 with runtime AVX2 only).
    Avx2,
}

impl IsaPath {
    /// The path's `FET_SIMD` spelling.
    pub fn name(self) -> &'static str {
        match self {
            IsaPath::Scalar => "scalar",
            IsaPath::Swar => "swar",
            IsaPath::Avx2 => "avx2",
        }
    }

    /// Parses a `FET_SIMD` spelling.
    pub fn from_name(name: &str) -> Option<IsaPath> {
        match name {
            "scalar" => Some(IsaPath::Scalar),
            "swar" => Some(IsaPath::Swar),
            "avx2" => Some(IsaPath::Avx2),
            _ => None,
        }
    }

    /// Every path this build can *name* (not necessarily run — see
    /// [`avx2_available`]). Useful for test/bench matrices.
    pub fn all() -> [IsaPath; 3] {
        [IsaPath::Scalar, IsaPath::Swar, IsaPath::Avx2]
    }

    /// Every path this host can actually execute.
    pub fn available() -> Vec<IsaPath> {
        let mut paths = vec![IsaPath::Scalar, IsaPath::Swar];
        if avx2_available() {
            paths.push(IsaPath::Avx2);
        }
        paths
    }
}

/// `true` iff the running host can execute the AVX2 kernels (x86_64,
/// intrinsics compiled in, CPU reports AVX2).
pub fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(fet_no_simd)))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(fet_no_simd))))]
    {
        false
    }
}

/// Cached selection: 0 = unresolved, else `IsaPath` discriminant + 1.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(path: IsaPath) -> u8 {
    match path {
        IsaPath::Scalar => 1,
        IsaPath::Swar => 2,
        IsaPath::Avx2 => 3,
    }
}

/// The path the `FET_SIMD` environment variable forces, if it is set.
///
/// # Errors
///
/// Returns what is wrong with the value when it is not one of
/// `scalar|swar|avx2` or forces `avx2` on a build or host that cannot
/// execute it. Front ends call this before a run starts so a bad value is
/// a typed error there; [`active_path`] panics on it.
pub fn env_override() -> Result<Option<IsaPath>, String> {
    let Ok(name) = std::env::var("FET_SIMD") else {
        return Ok(None);
    };
    let path = IsaPath::from_name(&name)
        .ok_or_else(|| format!("must be one of scalar|swar|avx2, got `{name}`"))?;
    if path == IsaPath::Avx2 && !avx2_available() {
        return Err("forces avx2, but this build/host cannot execute AVX2 \
                    (non-x86_64, fet_no_simd, or the CPU lacks the feature)"
            .into());
    }
    Ok(Some(path))
}

fn resolve() -> IsaPath {
    match env_override() {
        Ok(Some(path)) => path,
        Ok(None) if avx2_available() => IsaPath::Avx2,
        Ok(None) => IsaPath::Swar,
        Err(detail) => panic!("FET_SIMD {detail}"),
    }
}

/// The process's selected kernel tier. Resolved once and cached:
/// [`force_path`] override > `FET_SIMD` environment variable > runtime
/// detection (AVX2 when available, SWAR otherwise).
pub fn active_path() -> IsaPath {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => IsaPath::Scalar,
        2 => IsaPath::Swar,
        3 => IsaPath::Avx2,
        _ => {
            let path = resolve();
            ACTIVE.store(encode(path), Ordering::Relaxed);
            path
        }
    }
}

/// Test/bench hook: pins [`active_path`] to `path` (`None` clears the pin,
/// re-resolving on next use). Safe to flip at any time precisely *because*
/// of the stream contract — every path computes identical outputs, so a
/// concurrent caller observing either side of the flip sees the same
/// numbers.
pub fn force_path(path: Option<IsaPath>) {
    ACTIVE.store(path.map_or(0, encode), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Lemire index kernels (graph neighbor draws)
// ---------------------------------------------------------------------------
//
// The graph observation loop maps each 32-bit RNG lane into [0, d) by
// Lemire's multiply-with-rejection: `wide = lane · d`; the candidate index
// is `wide >> 32` and the lane is REJECTED iff `wide as u32 < 2³² mod d`
// (never, when d is a power of two). Each `next_u64` word yields two lanes,
// low half first — so 8 draws consume exactly four words when nothing is
// rejected, which is what lets the vector tiers speculate on whole words
// without touching the stream: on any rejection the caller replays the same
// four words through the scalar loop.

/// Reference kernel: 8 Lemire lanes from four consecutive RNG words
/// (two 32-bit lanes per word, low lane first). Writes the candidate
/// indices to `out` and returns the rejection mask (bit `j` set iff lane
/// `j` must be rejected and redrawn).
pub fn lemire8_scalar(words: &[u64; 4], d: u32, threshold: u32, out: &mut [u32; 8]) -> u8 {
    let mut reject = 0u8;
    for (j, slot) in out.iter_mut().enumerate() {
        let lane = (words[j / 2] >> ((j % 2) * 32)) as u32;
        let wide = u64::from(lane) * u64::from(d);
        *slot = (wide >> 32) as u32;
        reject |= u8::from((wide as u32) < threshold) << j;
    }
    reject
}

/// SWAR kernel: the same 8 lanes, unrolled and branch-free so the compiler
/// autovectorizes the multiply/compare at SSE2 width.
pub fn lemire8_swar(words: &[u64; 4], d: u32, threshold: u32, out: &mut [u32; 8]) -> u8 {
    let d = u64::from(d);
    let mut wides = [0u64; 8];
    for (i, &w) in words.iter().enumerate() {
        wides[2 * i] = u64::from(w as u32) * d;
        wides[2 * i + 1] = (w >> 32) * d;
    }
    for (slot, wide) in out.iter_mut().zip(wides) {
        *slot = (wide >> 32) as u32;
    }
    let mut reject = 0u8;
    for (j, wide) in wides.into_iter().enumerate() {
        reject |= u8::from((wide as u32) < threshold) << j;
    }
    reject
}

/// AVX2 kernel: all 8 lanes in one register (loading the four `u64` words
/// as eight little-endian `u32` lanes lands them exactly in draw order).
/// Falls back to [`lemire8_swar`] when AVX2 can't run.
pub fn lemire8_avx2(words: &[u64; 4], d: u32, threshold: u32, out: &mut [u32; 8]) -> u8 {
    #[cfg(all(target_arch = "x86_64", not(fet_no_simd)))]
    {
        if avx2_available() {
            // SAFETY: AVX2 availability checked at runtime just above.
            return unsafe { lemire8_avx2_unchecked(words, d, threshold, out) };
        }
    }
    lemire8_swar(words, d, threshold, out)
}

/// The raw AVX2 Lemire kernel, for callers that are themselves
/// `#[target_feature(enable = "avx2")]` — unlike the checked
/// [`lemire8_avx2`] wrapper, this one can inline into such callers, which
/// is what makes a per-agent AVX2 loop (one feature-boundary call per
/// agent instead of one per 8 draws) worth having.
///
/// # Safety
///
/// The CPU must support AVX2 (check [`avx2_available`]).
#[cfg(all(target_arch = "x86_64", not(fet_no_simd)))]
#[inline]
#[target_feature(enable = "avx2")]
pub unsafe fn lemire8_avx2_unchecked(
    words: &[u64; 4],
    d: u32,
    threshold: u32,
    out: &mut [u32; 8],
) -> u8 {
    use core::arch::x86_64::*;
    let v = _mm256_loadu_si256(words.as_ptr() as *const __m256i);
    let dv = _mm256_set1_epi64x(i64::from(d)); // mul_epu32 reads only the low 32 bits
                                               // 32×32→64 products of the even (low-half) and odd (high-half) lanes.
    let even = _mm256_mul_epu32(v, dv);
    let odd = _mm256_mul_epu32(_mm256_srli_epi64(v, 32), dv);
    // Candidate indices: wide >> 32, re-interleaved back into draw order.
    let idx = _mm256_blend_epi32::<0b10101010>(
        _mm256_srli_epi64(even, 32),
        odd, // the odd products' high halves already sit in the odd u32 lanes
    );
    _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, idx);
    if threshold == 0 {
        return 0; // power-of-two degree: rejection is impossible
    }
    // Rejection mask: low 32 bits of each product, compared unsigned
    // against the threshold via the sign-flip trick.
    let lo = _mm256_blend_epi32::<0b10101010>(even, _mm256_slli_epi64(odd, 32));
    let sign = _mm256_set1_epi32(i32::MIN);
    let rej = _mm256_cmpgt_epi32(
        _mm256_xor_si256(_mm256_set1_epi32(threshold as i32), sign),
        _mm256_xor_si256(lo, sign),
    );
    _mm256_movemask_ps(_mm256_castsi256_ps(rej)) as u8
}

/// Dispatches 8 Lemire lanes to `path`'s kernel. All paths are
/// bit-identical; see the module docs.
#[inline]
pub fn lemire8(path: IsaPath, words: &[u64; 4], d: u32, threshold: u32, out: &mut [u32; 8]) -> u8 {
    match path {
        IsaPath::Scalar => lemire8_scalar(words, d, threshold, out),
        IsaPath::Swar => lemire8_swar(words, d, threshold, out),
        IsaPath::Avx2 => lemire8_avx2(words, d, threshold, out),
    }
}

// ---------------------------------------------------------------------------
// Alias-block kernels (mean-field threshold words)
// ---------------------------------------------------------------------------
//
// `AliasTable::try_sample_block` draws one `fill_bytes` block of 16 bytes
// per draw: word `x` → slot via the power-of-two Lemire shift, word `y` →
// the acceptance probe. These kernels consume that block; the integer
// probe `(y >> 11) < thresh53[i]` is exactly the scalar f64 compare (see
// the module docs), so all tiers select the same categories.

/// SWAR alias-block kernel: branch-free integer select per 16-byte draw.
/// `shift` is `64 − log2(table len)` (a shift of 64 — the one-category
/// table — indexes slot 0); `thresh53[i] = ceil(prob[i] · 2⁵³)` and
/// `alias64` is the alias vector widened to `u64`.
pub fn alias_block_swar(
    bytes: &[u8],
    shift: u32,
    thresh53: &[u64],
    alias64: &[u64],
    out: &mut [usize],
) {
    for (slot, pair) in out.iter_mut().zip(bytes.chunks_exact(16)) {
        let x = u64::from_le_bytes(pair[..8].try_into().expect("8-byte word"));
        let y = u64::from_le_bytes(pair[8..].try_into().expect("8-byte word"));
        let i = x.checked_shr(shift).unwrap_or(0) as usize;
        let accept = (y >> 11) < thresh53[i];
        *slot = if accept { i } else { alias64[i] as usize };
    }
}

/// AVX2 alias-block kernel: 4 draws (64 bytes) per iteration — unpack the
/// x/y word pairs, shift-index, gather the integer thresholds and aliases,
/// compare, blend. Falls back to [`alias_block_swar`] when AVX2 can't run.
pub fn alias_block_avx2(
    bytes: &[u8],
    shift: u32,
    thresh53: &[u64],
    alias64: &[u64],
    out: &mut [usize],
) {
    #[cfg(all(target_arch = "x86_64", not(fet_no_simd)))]
    {
        if avx2_available() {
            // SAFETY: AVX2 availability checked at runtime just above.
            unsafe { alias_block_avx2_inner(bytes, shift, thresh53, alias64, out) };
            return;
        }
    }
    alias_block_swar(bytes, shift, thresh53, alias64, out);
}

#[cfg(all(target_arch = "x86_64", not(fet_no_simd)))]
#[target_feature(enable = "avx2")]
unsafe fn alias_block_avx2_inner(
    bytes: &[u8],
    shift: u32,
    thresh53: &[u64],
    alias64: &[u64],
    out: &mut [usize],
) {
    use core::arch::x86_64::*;
    let mut chunks = bytes.chunks_exact(64);
    let mut outs = out.chunks_exact_mut(4);
    let shift_count = _mm_cvtsi32_si128(shift as i32); // counts ≥ 64 shift to zero
    for (chunk, slots) in (&mut chunks).zip(&mut outs) {
        let a = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i); // x0 y0 x1 y1
        let b = _mm256_loadu_si256(chunk.as_ptr().add(32) as *const __m256i); // x2 y2 x3 y3
                                                                              // 128-bit-lane unpack scrambles draw order to (0, 2, 1, 3);
                                                                              // the store below unscrambles.
        let xs = _mm256_unpacklo_epi64(a, b); // x0 x2 x1 x3
        let ys = _mm256_unpackhi_epi64(a, b); // y0 y2 y1 y3
        let idx = _mm256_srl_epi64(xs, shift_count);
        let y53 = _mm256_srli_epi64(ys, 11);
        // Indices are < table len by construction, so the gathers stay in
        // bounds; both compare operands are < 2⁵⁴, so signed compare is
        // exact.
        let thr = _mm256_i64gather_epi64::<8>(thresh53.as_ptr() as *const i64, idx);
        let ali = _mm256_i64gather_epi64::<8>(alias64.as_ptr() as *const i64, idx);
        let accept = _mm256_cmpgt_epi64(thr, y53);
        let picked = _mm256_blendv_epi8(ali, idx, accept);
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, picked);
        slots[0] = lanes[0] as usize;
        slots[1] = lanes[2] as usize;
        slots[2] = lanes[1] as usize;
        slots[3] = lanes[3] as usize;
    }
    alias_block_swar(
        chunks.remainder(),
        shift,
        thresh53,
        alias64,
        outs.into_remainder(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference, one lane at a time, straight from the graph
    /// loop's definition.
    fn lemire_lane(lane: u32, d: u32, threshold: u32) -> (u32, bool) {
        let wide = u64::from(lane) * u64::from(d);
        ((wide >> 32) as u32, (wide as u32) < threshold)
    }

    fn words_from_lanes(lanes: [u32; 8]) -> [u64; 4] {
        let mut words = [0u64; 4];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::from(lanes[2 * i]) | (u64::from(lanes[2 * i + 1]) << 32);
        }
        words
    }

    /// Degrees at the 2³² boundary behave per the scalar definition on
    /// every path: d = 3 (threshold 1 — the only rejected lane is 0),
    /// and d = 2^k ± 1 where the threshold math is near-degenerate.
    #[test]
    fn lemire_lane_rejection_at_boundaries() {
        let interesting = [
            0u32,
            1,
            2,
            3,
            u32::MAX,
            u32::MAX - 1,
            1 << 31,
            (1 << 31) - 1,
            0x5555_5555,
            0xAAAA_AAAA,
        ];
        let degrees = [
            3u32,
            7,
            8,
            9,
            15,
            16,
            17,
            (1 << 30) - 1,
            1 << 30,
            (1 << 30) + 1,
            (1 << 31) - 1,
            1 << 31,
            (1 << 31) + 1,
            u32::MAX,
        ];
        for d in degrees {
            let threshold = d.wrapping_neg() % d;
            // d = 3: 2³² mod 3 = 1, so exactly the all-zero lane rejects.
            if d == 3 {
                assert_eq!(threshold, 1);
                assert!(lemire_lane(0, d, threshold).1);
                assert!(!lemire_lane(1, d, threshold).1);
            }
            // Powers of two never reject.
            if d.is_power_of_two() {
                assert_eq!(threshold, 0);
            }
            let lanes = interesting[..8].try_into().unwrap();
            let words = words_from_lanes(lanes);
            let mut expect = [0u32; 8];
            let mut expect_mask = 0u8;
            for (j, &lane) in lanes.iter().enumerate() {
                let (idx, rej) = lemire_lane(lane, d, threshold);
                expect[j] = idx;
                expect_mask |= u8::from(rej) << j;
                assert!(idx < d, "candidate index out of range for d={d}");
            }
            for path in IsaPath::available() {
                let mut got = [0u32; 8];
                let mask = lemire8(path, &words, d, threshold, &mut got);
                assert_eq!(got, expect, "{path:?} indices diverged for d={d}");
                assert_eq!(mask, expect_mask, "{path:?} mask diverged for d={d}");
            }
        }
    }

    /// Exhaustive-ish sweep: random words through every available path
    /// must match the scalar kernel exactly, mask and indices both.
    #[test]
    fn lemire8_paths_agree_on_random_words() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x151A);
        for _ in 0..500 {
            let d = (rng.next_u64() as u32).max(2);
            let threshold = d.wrapping_neg() % d;
            let words = [
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            ];
            let mut expect = [0u32; 8];
            let expect_mask = lemire8_scalar(&words, d, threshold, &mut expect);
            for path in IsaPath::available() {
                let mut got = [0u32; 8];
                let mask = lemire8(path, &words, d, threshold, &mut got);
                assert_eq!((mask, got), (expect_mask, expect), "{path:?} d={d}");
            }
        }
    }

    #[test]
    fn path_names_round_trip() {
        for path in IsaPath::all() {
            assert_eq!(IsaPath::from_name(path.name()), Some(path));
        }
        assert_eq!(IsaPath::from_name("sse9"), None);
    }

    #[test]
    fn force_path_pins_and_clears() {
        force_path(Some(IsaPath::Scalar));
        assert_eq!(active_path(), IsaPath::Scalar);
        force_path(Some(IsaPath::Swar));
        assert_eq!(active_path(), IsaPath::Swar);
        force_path(None);
        let resolved = active_path();
        assert!(IsaPath::available().contains(&resolved));
    }
}
