//! Property tests for the primitive-type invariants.
//!
//! Each property draws its inputs from a fixed-seed [`TinyRng`], so
//! every run checks the same cases; a failing case prints its inputs.
//! The `Radians::abs_diff` and `PackedRgba` round-trip properties live
//! in the unit tests of `angle.rs` and `color.rs`.

use pimgfx_types::{ByteCount, Mat4, Rect, Rgba, TinyRng, Vec2, Vec3};

const CASES: usize = 256;

/// Color lerp stays inside the channel hull of its endpoints.
#[test]
fn rgba_lerp_in_hull() {
    let mut rng = TinyRng::seed_from_u64(0x7e5_0001);
    for _ in 0..CASES {
        let a = rng.gen_range_f32(0.0, 1.0);
        let b = rng.gen_range_f32(0.0, 1.0);
        let t = rng.gen_range_f32(0.0, 1.0);
        let m = Rgba::gray(a).lerp(Rgba::gray(b), t);
        let lo = a.min(b) - 1e-6;
        let hi = a.max(b) + 1e-6;
        assert!(m.r >= lo && m.r <= hi, "a={a:?} b={b:?} t={t:?}: {}", m.r);
    }
}

/// Rectangle intersection is commutative and contained in both
/// operands; union contains both.
#[test]
fn rect_set_algebra() {
    let mut rng = TinyRng::seed_from_u64(0x7e5_0002);
    let coord = |rng: &mut TinyRng| rng.gen_range_u64(0, 100) as i32 - 50;
    for _ in 0..CASES {
        let (ax0, ay0) = (coord(&mut rng), coord(&mut rng));
        let (aw, ah) = (
            rng.gen_range_u64(0, 60) as i32,
            rng.gen_range_u64(0, 60) as i32,
        );
        let (bx0, by0) = (coord(&mut rng), coord(&mut rng));
        let (bw, bh) = (
            rng.gen_range_u64(0, 60) as i32,
            rng.gen_range_u64(0, 60) as i32,
        );
        let a = Rect::new(ax0, ay0, ax0 + aw, ay0 + ah);
        let b = Rect::new(bx0, by0, bx0 + bw, by0 + bh);
        let i1 = a.intersect(&b);
        let i2 = b.intersect(&a);
        assert_eq!(i1, i2, "a={a:?} b={b:?}");
        assert!(
            i1.area() <= a.area() && i1.area() <= b.area(),
            "a={a:?} b={b:?}"
        );
        let u = a.union(&b);
        assert!(
            u.area() >= a.area() && u.area() >= b.area(),
            "a={a:?} b={b:?}"
        );
    }
}

/// Tiling covers exactly the rectangle: every pixel of the clipped
/// rect lies in some produced tile.
#[test]
fn rect_tiles_cover() {
    let mut rng = TinyRng::seed_from_u64(0x7e5_0003);
    for _ in 0..CASES {
        let w = rng.gen_range_u64(1, 80) as u32;
        let h = rng.gen_range_u64(1, 80) as u32;
        let tile = rng.gen_range_u64(1, 32) as u32;
        let r = Rect::from_size(w, h);
        let tiles: Vec<_> = r.tiles(tile).collect();
        // Spot-check the four corners of the rect.
        for (x, y) in [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)] {
            let covered = tiles
                .iter()
                .any(|t| t.pixel_rect(tile).contains(x as i32, y as i32));
            assert!(
                covered,
                "w={w} h={h} tile={tile}: pixel ({x},{y}) uncovered"
            );
        }
    }
}

/// Matrix transforms are linear: M(p + q) == M(p) + M(q) for
/// directions.
#[test]
fn mat4_direction_transform_is_linear() {
    let mut rng = TinyRng::seed_from_u64(0x7e5_0004);
    for _ in 0..CASES {
        let mut v = || {
            Vec3::new(
                rng.gen_range_f32(-10.0, 10.0),
                rng.gen_range_f32(-10.0, 10.0),
                rng.gen_range_f32(-10.0, 10.0),
            )
        };
        let (p, q) = (v(), v());
        let angle = rng.gen_range_f32(-3.0, 3.0);
        let m = Mat4::rotation_y(angle);
        let lhs = m.transform_direction(p + q);
        let rhs = m.transform_direction(p) + m.transform_direction(q);
        assert!(
            (lhs - rhs).length() < 1e-3,
            "p={p:?} q={q:?} angle={angle:?}"
        );
    }
}

/// Rotations preserve length.
#[test]
fn rotations_are_isometries() {
    let mut rng = TinyRng::seed_from_u64(0x7e5_0005);
    for _ in 0..CASES {
        let v = Vec3::new(
            rng.gen_range_f32(-10.0, 10.0),
            rng.gen_range_f32(-10.0, 10.0),
            rng.gen_range_f32(-10.0, 10.0),
        );
        let angle = rng.gen_range_f32(-6.3, 6.3);
        for m in [
            Mat4::rotation_x(angle),
            Mat4::rotation_y(angle),
            Mat4::rotation_z(angle),
        ] {
            let t = m.transform_direction(v);
            assert!(
                (t.length() - v.length()).abs() < 1e-2 * v.length().max(1.0),
                "v={v:?} angle={angle:?}: {t:?}"
            );
        }
    }
}

/// Byte counts form a commutative monoid under addition.
#[test]
fn byte_count_addition() {
    let mut rng = TinyRng::seed_from_u64(0x7e5_0006);
    for _ in 0..CASES {
        let n = rng.gen_range_u64(0, 20);
        let xs: Vec<u64> = (0..n).map(|_| rng.gen_range_u64(0, 1_000_000)).collect();
        let forward: ByteCount = xs.iter().map(|&b| ByteCount::new(b)).sum();
        let backward: ByteCount = xs.iter().rev().map(|&b| ByteCount::new(b)).sum();
        assert_eq!(forward, backward, "xs={xs:?}");
        assert_eq!(forward.get(), xs.iter().sum::<u64>(), "xs={xs:?}");
    }
}

/// 2D cross product is antisymmetric.
#[test]
fn vec2_cross_antisymmetry() {
    let mut rng = TinyRng::seed_from_u64(0x7e5_0007);
    for _ in 0..CASES {
        let a = Vec2::new(
            rng.gen_range_f32(-100.0, 100.0),
            rng.gen_range_f32(-100.0, 100.0),
        );
        let b = Vec2::new(
            rng.gen_range_f32(-100.0, 100.0),
            rng.gen_range_f32(-100.0, 100.0),
        );
        assert!((a.cross(b) + b.cross(a)).abs() < 1e-2, "a={a:?} b={b:?}");
    }
}
