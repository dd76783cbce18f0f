//! Property tests for the texture subsystem's core invariants.
//!
//! Each property draws its inputs from a fixed-seed [`TinyRng`], so
//! every run checks the same cases; a failing case prints its inputs.

use pimgfx_texture::{
    filter, CacheConfig, CacheOutcome, Footprint, MippedTexture, Sampler, SamplerConfig,
    TextureCache, TextureImage, WrapMode,
};
use pimgfx_types::{Radians, Rgba, TinyRng, Vec2};

const CASES: usize = 64;

/// A square texture whose side is `size` rounded up to a power of two,
/// with a deterministic pseudo-random pattern per texel.
fn texture(size: u32, seed: u64) -> MippedTexture {
    let size = size.next_power_of_two();
    MippedTexture::with_full_chain(TextureImage::from_fn(size, size, |x, y| {
        let h = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(x) << 32 | u64::from(y));
        let v = ((h >> 16) & 0xFF) as f32 / 255.0;
        Rgba::new(v, 1.0 - v, v * 0.5, 1.0)
    }))
}

/// Draws the `(size, seed)` of a [`texture`]: sizes 4..=64.
fn texture_params(rng: &mut TinyRng) -> (u32, u64) {
    (rng.gen_range_u64(4, 65) as u32, rng.next_u64())
}

/// §V-B of the paper: reordering anisotropic filtering ahead of the
/// bilinear/trilinear blend must not change the output color.
#[test]
fn filter_reorder_identity() {
    let mut rng = TinyRng::seed_from_u64(0x7e8_0001);
    for _ in 0..CASES {
        let (size, seed) = texture_params(&mut rng);
        let u = rng.gen_range_f32(0.0, 1.0);
        let v = rng.gen_range_f32(0.0, 1.0);
        let dx = rng.gen_range_f32(0.1, 24.0);
        let dy = rng.gen_range_f32(0.1, 24.0);
        let max_aniso = rng.gen_range_u64(1, 17) as u32;
        let case = format!(
            "size={size} seed={seed} u={u:?} v={v:?} dx={dx:?} dy={dy:?} max_aniso={max_aniso}"
        );
        let tex = texture(size, seed);
        let fp = Footprint::from_derivatives(Vec2::new(dx, 0.0), Vec2::new(0.0, dy), max_aniso);
        let uv = Vec2::new(u, v);
        let mut f1 = Vec::new();
        let conventional = filter::anisotropic_conventional(&tex, uv, &fp, &mut f1);
        let mut f2 = Vec::new();
        let mut children = 0;
        let reordered = filter::anisotropic_reordered(&tex, uv, &fp, &mut f2, &mut children);
        assert!(
            conventional.max_channel_diff(reordered) < 1e-3,
            "reorder mismatch: {conventional:?} vs {reordered:?} (fp {fp:?}): {case}"
        );
        // The reordered (A-TFIM) order never fetches more parent texels
        // than a plain trilinear kernel would.
        assert!(f2.len() <= 8, "{} parent texels: {case}", f2.len());
    }
}

/// Wrap modes always fold any index into range.
#[test]
fn wrap_modes_fold_into_range() {
    let mut rng = TinyRng::seed_from_u64(0x7e8_0002);
    for _ in 0..CASES {
        let i = rng.gen_range_u64(0, 2000) as i64 - 1000;
        let n = rng.gen_range_u64(1, 512) as u32;
        for mode in [WrapMode::Repeat, WrapMode::Clamp, WrapMode::Mirror] {
            let w = mode.wrap(i, n);
            assert!(w < n, "{mode:?} produced {w} for i={i} n={n}");
        }
    }
}

/// Repeat wrapping is periodic.
#[test]
fn repeat_wrap_is_periodic() {
    let mut rng = TinyRng::seed_from_u64(0x7e8_0003);
    let m = WrapMode::Repeat;
    for _ in 0..CASES {
        let i = rng.gen_range_u64(0, 1000) as i64 - 500;
        let n = rng.gen_range_u64(1, 128) as u32;
        assert_eq!(m.wrap(i, n), m.wrap(i + i64::from(n), n), "i={i} n={n}");
    }
}

/// Every sampled color stays inside the hull of texel values
/// (filters are convex combinations).
#[test]
fn filtering_is_a_convex_combination() {
    let mut rng = TinyRng::seed_from_u64(0x7e8_0004);
    let sampler = Sampler::new(SamplerConfig::default());
    for _ in 0..CASES {
        let (size, seed) = texture_params(&mut rng);
        let u = rng.gen_range_f32(0.0, 1.0);
        let v = rng.gen_range_f32(0.0, 1.0);
        let dx = rng.gen_range_f32(0.01, 16.0);
        let tex = texture(size, seed);
        let s = sampler.sample(
            &tex,
            Vec2::new(u, v),
            Vec2::new(dx, 0.0),
            Vec2::new(0.0, dx),
        );
        for c in [s.color.r, s.color.g, s.color.b, s.color.a] {
            assert!(
                (-1e-4..=1.0 + 1e-4).contains(&c),
                "channel {c} out of hull: size={size} seed={seed} u={u:?} v={v:?} dx={dx:?}"
            );
        }
    }
}

/// The anisotropy ratio is always within [1, next_pow2(max_aniso)]
/// and the mip-level pair is always adjacent and in range.
#[test]
fn footprint_invariants() {
    let mut rng = TinyRng::seed_from_u64(0x7e8_0005);
    for _ in 0..CASES {
        let ddx = Vec2::new(
            rng.gen_range_f32(-64.0, 64.0),
            rng.gen_range_f32(-64.0, 64.0),
        );
        let ddy = Vec2::new(
            rng.gen_range_f32(-64.0, 64.0),
            rng.gen_range_f32(-64.0, 64.0),
        );
        let max_aniso = rng.gen_range_u64(1, 17) as u32;
        let max_level = rng.gen_range_f32(0.0, 12.0);
        let case = format!("ddx={ddx:?} ddy={ddy:?} max_aniso={max_aniso} max_level={max_level:?}");
        let fp = Footprint::from_derivatives(ddx, ddy, max_aniso);
        assert!(fp.aniso_ratio >= 1, "{fp:?}: {case}");
        assert!(
            fp.aniso_ratio <= max_aniso.next_power_of_two(),
            "{fp:?}: {case}"
        );
        assert!(fp.lod >= 0.0, "{fp:?}: {case}");
        let (fine, coarse, w) = fp.mip_levels(max_level);
        assert!(fine <= coarse, "{fine} > {coarse}: {case}");
        assert!(coarse <= max_level as usize, "coarse {coarse}: {case}");
        assert!(coarse - fine <= 1, "{fine}..{coarse}: {case}");
        assert!((0.0..=1.0).contains(&w), "weight {w}: {case}");
    }
}

/// Cache accesses never report a hit for a line that was never
/// filled, and the same line twice in a row always hits.
#[test]
fn cache_fill_then_hit() {
    let mut rng = TinyRng::seed_from_u64(0x7e8_0006);
    for _ in 0..CASES {
        let n = rng.gen_range_u64(1, 200);
        let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range_u64(0, 1_000_000)).collect();
        let mut cache = TextureCache::new(CacheConfig::l1_default()).expect("valid");
        let mut filled = std::collections::HashSet::new();
        for &addr in &addrs {
            let line = addr / 64;
            let out = cache.access(addr);
            if !filled.contains(&line) {
                assert_eq!(
                    out,
                    CacheOutcome::Miss,
                    "hit on never-filled {addr}: {addrs:?}"
                );
            }
            filled.insert(line);
            // Immediate re-access of the same line is always a hit
            // (the line was just filled or refreshed as MRU).
            assert_eq!(
                cache.access(addr),
                CacheOutcome::Hit,
                "re-access {addr}: {addrs:?}"
            );
        }
    }
}

/// An angle-tagged access with a threshold of π never angle-misses.
#[test]
fn max_threshold_never_angle_misses() {
    let mut rng = TinyRng::seed_from_u64(0x7e8_0007);
    for _ in 0..CASES {
        let n = rng.gen_range_u64(1, 100);
        let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range_u64(0, 100_000)).collect();
        let n = rng.gen_range_u64(1, 100);
        let angles: Vec<f32> = (0..n).map(|_| rng.gen_range_f32(0.0, 6.2)).collect();
        let mut cache = TextureCache::new(CacheConfig::l1_default()).expect("valid");
        for (addr, angle) in addrs.iter().zip(angles.iter().cycle()) {
            let out = cache.access_with_angle(*addr, Some(Radians::new(*angle)), Radians::PI);
            assert_ne!(
                out,
                CacheOutcome::AngleMiss,
                "addrs={addrs:?} angles={angles:?}"
            );
        }
    }
}

/// Mipmap pyramids preserve the mean color (box filtering is an
/// average), within 8-bit quantization drift per level.
#[test]
fn mip_chain_preserves_mean() {
    let mut rng = TinyRng::seed_from_u64(0x7e8_0008);
    let mean_of = |img: &TextureImage| {
        let mut sum = 0.0f64;
        for y in 0..img.height() {
            for x in 0..img.width() {
                sum += f64::from(img.texel(x, y).r);
            }
        }
        sum / f64::from(img.width() * img.height())
    };
    for _ in 0..CASES {
        let (size, seed) = texture_params(&mut rng);
        let tex = texture(size, seed);
        let base_mean = mean_of(tex.level(0));
        let top = tex.level(tex.level_count() - 1);
        let drift = (mean_of(top) - base_mean).abs();
        // Allow ~1 LSB of quantization drift per level.
        assert!(
            drift < 0.004 * tex.level_count() as f64 + 0.02,
            "mean drifted {drift} over {} levels: size={size} seed={seed}",
            tex.level_count()
        );
    }
}
