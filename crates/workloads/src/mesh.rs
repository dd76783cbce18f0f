//! Procedural mesh generators.
//!
//! A game frame's anisotropy profile is set by its geometry mix: floors
//! and ceilings seen at grazing angles produce highly anisotropic
//! footprints; walls along the view direction are moderately oblique;
//! surfaces facing the camera are isotropic. The generators here build
//! those three ingredients as tessellated grids with optional normal
//! perturbation ("bumpiness") — the source of per-pixel camera-angle
//! variation that the A-TFIM threshold trades against quality.

use pimgfx_raster::Vertex;
use pimgfx_types::{TinyRng, Vec2, Vec3};

/// Tessellates a rectangular grid into triangles.
///
/// `origin` is the corner, `edge_u`/`edge_v` the full edge vectors,
/// `normal` the unperturbed surface normal, and `(nu, nv)` the quad
/// resolution. `uv_tiles` controls how many times the texture repeats
/// over the surface; `bumpiness` perturbs vertex normals by up to that
/// many radians (seeded, deterministic).
///
/// # Panics
///
/// Panics if `nu` or `nv` is zero.
///
/// # Examples
///
/// ```
/// use pimgfx_workloads::mesh::grid;
/// use pimgfx_types::Vec3;
///
/// let tris = grid(
///     Vec3::ZERO,
///     Vec3::new(10.0, 0.0, 0.0),
///     Vec3::new(0.0, 0.0, 10.0),
///     Vec3::Y,
///     4,
///     4,
///     2.0,
///     0.0,
///     1,
/// );
/// assert_eq!(tris.len(), 4 * 4 * 2);
/// ```
#[allow(
    clippy::too_many_arguments,
    reason = "each argument is one geometric degree of freedom of the grid, named at the call site"
)]
pub fn grid(
    origin: Vec3,
    edge_u: Vec3,
    edge_v: Vec3,
    normal: Vec3,
    nu: u32,
    nv: u32,
    uv_tiles: f32,
    bumpiness: f32,
    seed: u64,
) -> Vec<[Vertex; 3]> {
    assert!(nu > 0 && nv > 0, "grid resolution must be nonzero");
    let mut rng = TinyRng::seed_from_u64(seed);
    // Perturbation axes spanning the surface.
    let tan_u = edge_u.normalized();
    let tan_v = edge_v.normalized();
    // A *smooth* bump field: random phases/frequencies per surface, but
    // the normal varies continuously across it. Neighboring pixels (and
    // the texels they share) then carry nearly identical camera angles —
    // the coherence the A-TFIM angle threshold exploits — while distant
    // regions and different surfaces still differ enough to trigger
    // recalculation at strict thresholds.
    let (pa, pb) = (
        rng.gen_range_f32(0.0, std::f32::consts::TAU),
        rng.gen_range_f32(0.0, std::f32::consts::TAU),
    );
    let (fa, fb) = (rng.gen_range_f32(1.5, 3.5), rng.gen_range_f32(1.5, 3.5));

    let vertex = |i: u32, j: u32| -> Vertex {
        let fu = i as f32 / nu as f32;
        let fv = j as f32 / nv as f32;
        let pos = origin + edge_u * fu + edge_v * fv;
        let n = if bumpiness > 0.0 {
            let a = bumpiness * (fa * std::f32::consts::TAU * fu + pa).sin();
            let b = bumpiness * (fb * std::f32::consts::TAU * fv + pb).sin();
            (normal + tan_u * a.tan() + tan_v * b.tan()).normalized()
        } else {
            normal
        };
        Vertex::new(pos, n, Vec2::new(fu * uv_tiles, fv * uv_tiles))
    };

    // Pre-generate the vertex lattice so shared corners share normals
    // (no cracks in the angle field).
    let mut lattice = Vec::with_capacity(((nu + 1) * (nv + 1)) as usize);
    for j in 0..=nv {
        for i in 0..=nu {
            lattice.push(vertex(i, j));
        }
    }
    let at = |i: u32, j: u32| lattice[(j * (nu + 1) + i) as usize];

    let mut tris = Vec::with_capacity((nu * nv * 2) as usize);
    for j in 0..nv {
        for i in 0..nu {
            let v00 = at(i, j);
            let v10 = at(i + 1, j);
            let v01 = at(i, j + 1);
            let v11 = at(i + 1, j + 1);
            tris.push([v00, v10, v11]);
            tris.push([v00, v11, v01]);
        }
    }
    tris
}

/// A floor plane extending forward from the camera: the oblique,
/// anisotropy-heavy surface. Lies in the xz-plane at `y`, spanning
/// `width` across x and `depth` along -z.
pub fn floor(
    y: f32,
    width: f32,
    depth: f32,
    quads: u32,
    uv_tiles: f32,
    bumpiness: f32,
    seed: u64,
) -> Vec<[Vertex; 3]> {
    grid(
        Vec3::new(-width / 2.0, y, 0.0),
        Vec3::new(width, 0.0, 0.0),
        Vec3::new(0.0, 0.0, -depth),
        Vec3::Y,
        quads,
        quads,
        uv_tiles,
        bumpiness,
        seed,
    )
}

/// A side wall along the corridor at `x`, spanning `depth` along -z and
/// `height` up: moderately oblique.
#[allow(
    clippy::too_many_arguments,
    reason = "each argument is one geometric degree of freedom of the wall, named at the call site"
)]
pub fn wall(
    x: f32,
    y0: f32,
    height: f32,
    depth: f32,
    quads: u32,
    uv_tiles: f32,
    bumpiness: f32,
    seed: u64,
) -> Vec<[Vertex; 3]> {
    let normal = if x < 0.0 { Vec3::X } else { -Vec3::X };
    grid(
        Vec3::new(x, y0, 0.0),
        Vec3::new(0.0, 0.0, -depth),
        Vec3::new(0.0, height, 0.0),
        normal,
        quads,
        quads,
        uv_tiles,
        bumpiness,
        seed,
    )
}

/// A camera-facing quad at distance `z` (isotropic footprints).
pub fn facing_quad(
    center: Vec3,
    half: f32,
    uv_tiles: f32,
    bumpiness: f32,
    seed: u64,
) -> Vec<[Vertex; 3]> {
    grid(
        center + Vec3::new(-half, -half, 0.0),
        Vec3::new(2.0 * half, 0.0, 0.0),
        Vec3::new(0.0, 2.0 * half, 0.0),
        Vec3::Z,
        2,
        2,
        uv_tiles,
        bumpiness,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_triangle_count() {
        let tris = grid(Vec3::ZERO, Vec3::X, Vec3::Z, Vec3::Y, 3, 5, 1.0, 0.0, 0);
        assert_eq!(tris.len(), 3 * 5 * 2);
    }

    #[test]
    fn unbumped_grid_has_uniform_normals() {
        let tris = floor(0.0, 10.0, 10.0, 4, 1.0, 0.0, 0);
        for t in &tris {
            for v in t {
                assert_eq!(v.normal, Vec3::Y);
            }
        }
    }

    #[test]
    fn bumpiness_perturbs_normals_but_keeps_unit_length() {
        let tris = floor(0.0, 10.0, 10.0, 4, 1.0, 0.2, 7);
        let mut distinct = std::collections::HashSet::new();
        for t in &tris {
            for v in t {
                assert!((v.normal.length() - 1.0).abs() < 1e-5);
                distinct.insert((v.normal.x.to_bits(), v.normal.z.to_bits()));
            }
        }
        assert!(distinct.len() > 5, "normals should vary");
    }

    #[test]
    fn grids_are_deterministic() {
        let a = floor(0.0, 8.0, 8.0, 3, 2.0, 0.1, 11);
        let b = floor(0.0, 8.0, 8.0, 3, 2.0, 0.1, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn uv_covers_tile_range() {
        let tris = floor(0.0, 8.0, 8.0, 2, 4.0, 0.0, 0);
        let mut max_u = 0.0f32;
        for t in &tris {
            for v in t {
                max_u = max_u.max(v.uv.x);
            }
        }
        assert!((max_u - 4.0).abs() < 1e-5);
    }

    #[test]
    fn wall_normals_face_inward() {
        let left = wall(-5.0, 0.0, 4.0, 20.0, 2, 2.0, 0.0, 0);
        assert_eq!(left[0][0].normal, Vec3::X);
        let right = wall(5.0, 0.0, 4.0, 20.0, 2, 2.0, 0.0, 0);
        assert_eq!(right[0][0].normal, -Vec3::X);
    }

    #[test]
    fn facing_quad_spans_center() {
        let tris = facing_quad(Vec3::new(0.0, 1.0, -5.0), 2.0, 1.0, 0.0, 0);
        assert_eq!(tris.len(), 8);
        let xs: Vec<f32> = tris.iter().flatten().map(|v| v.position.x).collect();
        assert!(xs.iter().cloned().fold(f32::MAX, f32::min) <= -2.0 + 1e-5);
        assert!(xs.iter().cloned().fold(f32::MIN, f32::max) >= 2.0 - 1e-5);
    }
}
