//! Property tests for the quality-metric invariants.
//!
//! Each property draws its inputs from a fixed-seed [`TinyRng`], so
//! every run checks the same cases; a failing case prints its inputs.

use pimgfx_quality::{mse, psnr, ssim, FrameImage};
use pimgfx_types::{Rgba, TinyRng};

const CASES: usize = 64;

/// A `w`×`h` gray image with a deterministic pseudo-random pattern.
fn image(w: u32, h: u32, seed: u64) -> FrameImage {
    FrameImage::from_fn(w, h, |x, y| {
        let mut v = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((u64::from(x) << 32) | u64::from(y));
        v ^= v >> 31;
        Rgba::gray((v & 0xFF) as f32 / 255.0)
    })
}

/// Draws the `(w, h, seed)` of an [`image`]: sides 8..24.
fn image_params(rng: &mut TinyRng) -> (u32, u32, u64) {
    let w = rng.gen_range_u64(8, 24) as u32;
    let h = rng.gen_range_u64(8, 24) as u32;
    (w, h, rng.next_u64())
}

/// PSNR and MSE are symmetric in their arguments.
#[test]
fn metrics_are_symmetric() {
    let mut rng = TinyRng::seed_from_u64(0x9a1_0001);
    for _ in 0..CASES {
        let (w, h, seed_a) = image_params(&mut rng);
        let seed = rng.next_u64();
        let case = format!("a=({w}, {h}, {seed_a}) seed={seed}");
        let a = image(w, h, seed_a);
        let b = FrameImage::from_fn(w, h, |x, y| {
            let mut v = seed.wrapping_add((u64::from(x) << 16) | u64::from(y));
            v ^= v >> 13;
            Rgba::gray((v & 0xFF) as f32 / 255.0)
        });
        assert_eq!(
            mse(&a, &b).unwrap().to_bits(),
            mse(&b, &a).unwrap().to_bits(),
            "{case}"
        );
        assert_eq!(
            psnr(&a, &b).unwrap().to_bits(),
            psnr(&b, &a).unwrap().to_bits(),
            "{case}"
        );
        assert!(
            (ssim(&a, &b).unwrap() - ssim(&b, &a).unwrap()).abs() < 1e-9,
            "{case}"
        );
    }
}

/// Identity: every metric saturates on identical images.
#[test]
fn identity_saturates() {
    let mut rng = TinyRng::seed_from_u64(0x9a1_0002);
    for _ in 0..CASES {
        let (w, h, seed) = image_params(&mut rng);
        let case = format!("a=({w}, {h}, {seed})");
        let a = image(w, h, seed);
        assert_eq!(mse(&a, &a.clone()).unwrap(), 0.0, "{case}");
        assert_eq!(psnr(&a, &a.clone()).unwrap(), 99.0, "{case}");
        assert!((ssim(&a, &a.clone()).unwrap() - 1.0).abs() < 1e-9, "{case}");
    }
}

/// Ranges: PSNR is positive and capped; SSIM lies in [-1, 1].
#[test]
fn metric_ranges() {
    let mut rng = TinyRng::seed_from_u64(0x9a1_0003);
    for _ in 0..CASES {
        let (aw, ah, a_seed) = image_params(&mut rng);
        let (bw, bh, b_seed) = image_params(&mut rng);
        let case = format!("a=({aw}, {ah}, {a_seed}) b=({bw}, {bh}, {b_seed})");
        let a = image(aw, ah, a_seed);
        let b = image(bw, bh, b_seed);
        // Only comparable when sizes match; regenerate b at a's size.
        let b = FrameImage::from_fn(aw, ah, |x, y| b.pixel(x % bw, y % bh).to_rgba());
        let p = psnr(&a, &b).unwrap();
        assert!(p > 0.0 && p <= 99.0, "psnr {p}: {case}");
        let s = ssim(&a, &b).unwrap();
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s), "ssim {s}: {case}");
    }
}

/// Monotonicity: amplifying a uniform error never raises PSNR.
#[test]
fn psnr_monotone_in_error() {
    let mut rng = TinyRng::seed_from_u64(0x9a1_0004);
    for _ in 0..CASES {
        let base = rng.gen_range_f32(0.0, 0.5);
        let e1 = rng.gen_range_f32(0.0, 0.2);
        let scale = rng.gen_range_f32(1.0, 3.0);
        let a = FrameImage::filled(16, 16, Rgba::gray(base));
        let b1 = FrameImage::filled(16, 16, Rgba::gray(base + e1));
        let b2 = FrameImage::filled(16, 16, Rgba::gray(base + e1 * scale));
        assert!(
            psnr(&a, &b1).unwrap() + 1e-9 >= psnr(&a, &b2).unwrap(),
            "base={base:?} e1={e1:?} scale={scale:?}"
        );
    }
}
