//! Property tests for the geometry/rasterization invariants.
//!
//! Each property draws its inputs from a fixed-seed [`TinyRng`], so
//! every run checks the same cases; a failing case prints its inputs.

use pimgfx_raster::{clip_triangle, Camera, ClipVertex, Rasterizer, TriangleSetup, Vertex};
use pimgfx_types::{TinyRng, Vec2, Vec3, Vec4};

const CASES: usize = 128;

/// A clip-space vertex: x, y, z in [-3, 3), w in [0.2, 4), uv and the
/// view cosine in [0, 1).
fn clip_vertex(rng: &mut TinyRng) -> ClipVertex {
    let x = rng.gen_range_f32(-3.0, 3.0);
    let y = rng.gen_range_f32(-3.0, 3.0);
    let z = rng.gen_range_f32(-3.0, 3.0);
    let w = rng.gen_range_f32(0.2, 4.0);
    let u = rng.gen_range_f32(0.0, 1.0);
    let v = rng.gen_range_f32(0.0, 1.0);
    let cos = rng.gen_range_f32(0.0, 1.0);
    ClipVertex::new(Vec4::new(x, y, z, w), Vec2::new(u, v), cos)
}

/// Clipping output always satisfies every frustum inequality.
#[test]
fn clipped_vertices_are_inside_the_frustum() {
    let mut rng = TinyRng::seed_from_u64(0x5a5_0001);
    for _ in 0..CASES {
        let tri = [
            clip_vertex(&mut rng),
            clip_vertex(&mut rng),
            clip_vertex(&mut rng),
        ];
        for out in clip_triangle(tri) {
            for v in out {
                let c = v.clip;
                let eps = 1e-3 * c.w.abs().max(1.0);
                assert!(c.x >= -c.w - eps && c.x <= c.w + eps, "{c:?} from {tri:?}");
                assert!(c.y >= -c.w - eps && c.y <= c.w + eps, "{c:?} from {tri:?}");
                assert!(c.z >= -c.w - eps && c.z <= c.w + eps, "{c:?} from {tri:?}");
                assert!(
                    c.w > 0.0,
                    "clipped vertex must have positive w: {c:?} from {tri:?}"
                );
            }
        }
    }
}

/// Clipping a fully-inside triangle is the identity; a fully-outside
/// one yields nothing.
#[test]
fn clip_preserves_inside_triangles() {
    let mut rng = TinyRng::seed_from_u64(0x5a5_0002);
    let v = |x: f32, y: f32| ClipVertex::new(Vec4::new(x, y, 0.0, 1.0), Vec2::ZERO, 1.0);
    for _ in 0..CASES {
        let xs: Vec<f32> = (0..6).map(|_| rng.gen_range_f32(-0.9, 0.9)).collect();
        let tri = [v(xs[0], xs[1]), v(xs[2], xs[3]), v(xs[4], xs[5])];
        let out = clip_triangle(tri);
        assert_eq!(out.len(), 1, "xs={xs:?}");
        assert_eq!(out[0][0].clip, tri[0].clip, "xs={xs:?}");
    }
}

/// Barycentric coordinates sum to one everywhere.
#[test]
fn barycentrics_sum_to_one() {
    let mut rng = TinyRng::seed_from_u64(0x5a5_0003);
    for _ in 0..CASES {
        let tri = [
            clip_vertex(&mut rng),
            clip_vertex(&mut rng),
            clip_vertex(&mut rng),
        ];
        let px = rng.gen_range_u64(0, 128) as i32;
        let py = rng.gen_range_u64(0, 128) as i32;
        if let Some(setup) = TriangleSetup::new(&tri, 128, 128) {
            let (w0, w1, w2) = setup.barycentric(px, py);
            assert!(
                (w0 + w1 + w2 - 1.0).abs() < 1e-3,
                "({w0}, {w1}, {w2}) at ({px},{py}) of {tri:?}"
            );
        }
    }
}

/// Every emitted fragment lies in the viewport, inside the
/// triangle's bounding box, with interpolants in range.
#[test]
fn fragments_are_well_formed() {
    let mut rng = TinyRng::seed_from_u64(0x5a5_0004);
    let camera = Camera::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y, 1.0, 1.0);
    for _ in 0..CASES {
        let mut p = || {
            Vec3::new(
                rng.gen_range_f32(-2.0, 2.0),
                rng.gen_range_f32(-2.0, 2.0),
                0.0,
            )
        };
        let (a, b, c) = (p(), p(), p());
        let tri = [
            Vertex::new(a, Vec3::Z, Vec2::new(0.0, 0.0)),
            Vertex::new(b, Vec3::Z, Vec2::new(1.0, 0.0)),
            Vertex::new(c, Vec3::Z, Vec2::new(0.0, 1.0)),
        ];
        let mut raster = Rasterizer::new(96, 96);
        for f in raster.rasterize(&camera, &tri) {
            let case = format!("{f:?} of a={a:?} b={b:?} c={c:?}");
            assert!(f.x < 96 && f.y < 96, "{case}");
            assert!((0.0..=1.0).contains(&f.depth), "{case}");
            assert!(f.camera_angle.as_f32() >= 0.0, "{case}");
            assert!(
                f.camera_angle.as_f32() <= std::f32::consts::FRAC_PI_2 + 1e-3,
                "{case}"
            );
            // uv inside (slightly padded) unit triangle hull.
            assert!(f.uv.x >= -0.05 && f.uv.x <= 1.05, "{case}");
            assert!(f.uv.y >= -0.05 && f.uv.y <= 1.05, "{case}");
        }
    }
}

/// Early Z is order-independent for opaque geometry: rasterizing
/// two triangles in either order yields the same surviving depth at
/// every pixel.
#[test]
fn depth_result_is_draw_order_independent() {
    let mut rng = TinyRng::seed_from_u64(0x5a5_0005);
    let camera = Camera::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y, 1.0, 1.0);
    let tri = |z: f32| {
        [
            Vertex::new(Vec3::new(-1.0, -1.0, z), Vec3::Z, Vec2::new(0.0, 0.0)),
            Vertex::new(Vec3::new(1.0, -1.0, z), Vec3::Z, Vec2::new(1.0, 0.0)),
            Vertex::new(Vec3::new(0.0, 1.0, z), Vec3::Z, Vec2::new(0.5, 1.0)),
        ]
    };
    let depths = |first: f32, second: f32| {
        let mut r = Rasterizer::new(48, 48);
        r.rasterize(&camera, &tri(first));
        r.rasterize(&camera, &tri(second));
        (0..48)
            .flat_map(|y| (0..48).map(move |x| (x, y)))
            .map(|(x, y)| r.depth_buffer().depth(x, y).to_bits())
            .collect::<Vec<_>>()
    };
    for _ in 0..CASES {
        let z1 = rng.gen_range_f32(-1.5, 1.5);
        let z2 = rng.gen_range_f32(-1.5, 1.5);
        assert_eq!(depths(z1, z2), depths(z2, z1), "z1={z1:?} z2={z2:?}");
    }
}
