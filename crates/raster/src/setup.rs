//! Triangle setup: screen-space edge functions, attribute plane
//! equations, and perspective-correct interpolation gradients.

use crate::camera::Camera;
use crate::fragment::Fragment;
use crate::vertex::ClipVertex;
use pimgfx_types::{Radians, Rect, TextureId, Vec2};

/// A triangle prepared for scanning: screen coordinates, edge functions,
/// and linear plane equations for `1/w`, `uv/w`, `z`, and `view_cos/w`.
///
/// Perspective-correct interpolation interpolates `a/w` and `1/w`
/// linearly in screen space and divides per fragment; the setup
/// precomputes the screen-space gradients of those linear functions, from
/// which the per-pixel uv derivatives (the texture footprint) follow
/// analytically.
#[derive(Debug, Clone)]
pub struct TriangleSetup {
    /// Screen positions of the three vertices.
    pub screen: [Vec2; 3],
    /// Depth (`z` in `[0, 1]`) at the vertices.
    pub z: [f32; 3],
    /// 1/w at the vertices.
    pub inv_w: [f32; 3],
    /// uv/w at the vertices.
    pub uv_over_w: [Vec2; 3],
    /// view_cos/w at the vertices.
    pub cos_over_w: [f32; 3],
    /// Twice the signed screen-space area.
    pub area2: f32,
    /// Pixel bounding box, clipped to the viewport.
    pub bbox: Rect,
}

impl TriangleSetup {
    /// Prepares a clipped triangle for a `width`×`height` viewport.
    ///
    /// Returns `None` for degenerate (zero-area) or fully off-screen
    /// triangles. Back-facing triangles are *kept* (two-sided rendering)
    /// by flipping the winding, which keeps the workload generators
    /// simple.
    pub fn new(tri: &[ClipVertex; 3], width: u32, height: u32) -> Option<Self> {
        let mut screen = [Vec2::ZERO; 3];
        let mut z = [0.0f32; 3];
        let mut inv_w = [0.0f32; 3];
        for i in 0..3 {
            let (x, y, zz, iw) = Camera::to_screen(tri[i].clip, width, height);
            screen[i] = Vec2::new(x, y);
            z[i] = zz;
            inv_w[i] = iw;
        }

        let mut order = [0usize, 1, 2];
        let e01 = screen[1] - screen[0];
        let e02 = screen[2] - screen[0];
        let mut area2 = e01.cross(e02);
        if area2.abs() < 1e-8 {
            return None;
        }
        if area2 < 0.0 {
            // Flip winding so edge functions are consistently positive
            // inside.
            order = [0, 2, 1];
            area2 = -area2;
        }

        let pick = |i: usize| tri[order[i]];
        let s = [screen[order[0]], screen[order[1]], screen[order[2]]];
        let zz = [z[order[0]], z[order[1]], z[order[2]]];
        let iw = [inv_w[order[0]], inv_w[order[1]], inv_w[order[2]]];
        let uvw = [pick(0).uv * iw[0], pick(1).uv * iw[1], pick(2).uv * iw[2]];
        let cw = [
            pick(0).view_cos * iw[0],
            pick(1).view_cos * iw[1],
            pick(2).view_cos * iw[2],
        ];

        let min = s[0].min(s[1]).min(s[2]);
        let max = s[0].max(s[1]).max(s[2]);
        let bbox = Rect::new(
            min.x.floor() as i32,
            min.y.floor() as i32,
            max.x.ceil() as i32,
            max.y.ceil() as i32,
        )
        .intersect(&Rect::from_size(width, height));
        if bbox.is_empty() {
            return None;
        }

        Some(Self {
            screen: s,
            z: zz,
            inv_w: iw,
            uv_over_w: uvw,
            cos_over_w: cw,
            area2,
            bbox,
        })
    }

    /// Barycentric coordinates of pixel center `(px + 0.5, py + 0.5)`.
    /// All three are ≥ 0 inside the triangle and sum to 1.
    pub fn barycentric(&self, px: i32, py: i32) -> (f32, f32, f32) {
        let p = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
        let w0 = (self.screen[1] - p).cross(self.screen[2] - p) / self.area2;
        let w1 = (self.screen[2] - p).cross(self.screen[0] - p) / self.area2;
        let w2 = 1.0 - w0 - w1;
        (w0, w1, w2)
    }

    /// True when the barycentric triple lies inside the triangle.
    pub fn inside(b: (f32, f32, f32)) -> bool {
        b.0 >= 0.0 && b.1 >= 0.0 && b.2 >= 0.0
    }

    /// Screen-space gradient `(d/dx, d/dy)` of the linear interpolation of
    /// per-vertex values `v`.
    pub fn gradient(&self, v: [f32; 3]) -> (f32, f32) {
        // Solve the plane equation through the three screen points.
        let (p0, p1, p2) = (self.screen[0], self.screen[1], self.screen[2]);
        let d10 = p1 - p0;
        let d20 = p2 - p0;
        let v10 = v[1] - v[0];
        let v20 = v[2] - v[0];
        let ddx = (v10 * d20.y - v20 * d10.y) / self.area2;
        let ddy = (v20 * d10.x - v10 * d20.x) / self.area2;
        (ddx, ddy)
    }

    /// Interpolates a linear (non-perspective) value at barycentric `b`.
    pub fn interp_linear(v: [f32; 3], b: (f32, f32, f32)) -> f32 {
        v[0] * b.0 + v[1] * b.1 + v[2] * b.2
    }

    /// Perspective-correct uv, camera-angle cosine, and uv screen-space
    /// derivatives at barycentric `b`.
    ///
    /// Returns `(uv, duv_dx, duv_dy, view_cos)`, uv in normalized texture
    /// space and derivatives per pixel step.
    pub fn shade_point(&self, b: (f32, f32, f32)) -> (Vec2, Vec2, Vec2, f32) {
        let inv_w = Self::interp_linear(self.inv_w, b).max(1e-12);
        let w = 1.0 / inv_w;
        let uw = Vec2::new(
            Self::interp_linear(
                [
                    self.uv_over_w[0].x,
                    self.uv_over_w[1].x,
                    self.uv_over_w[2].x,
                ],
                b,
            ),
            Self::interp_linear(
                [
                    self.uv_over_w[0].y,
                    self.uv_over_w[1].y,
                    self.uv_over_w[2].y,
                ],
                b,
            ),
        );
        let uv = uw * w;
        let view_cos = (Self::interp_linear(self.cos_over_w, b) * w).clamp(0.0, 1.0);

        // d(u)/dx = (d(u/w)/dx - u * d(1/w)/dx) * w, and likewise for the
        // other three derivatives: the quotient rule applied to
        // u = (u/w)/(1/w).
        let (diw_dx, diw_dy) = self.gradient(self.inv_w);
        let (duw_dx, duw_dy) = self.gradient([
            self.uv_over_w[0].x,
            self.uv_over_w[1].x,
            self.uv_over_w[2].x,
        ]);
        let (dvw_dx, dvw_dy) = self.gradient([
            self.uv_over_w[0].y,
            self.uv_over_w[1].y,
            self.uv_over_w[2].y,
        ]);
        let duv_dx = Vec2::new((duw_dx - uv.x * diw_dx) * w, (dvw_dx - uv.y * diw_dx) * w);
        let duv_dy = Vec2::new((duw_dy - uv.x * diw_dy) * w, (dvw_dy - uv.y * diw_dy) * w);
        (uv, duv_dx, duv_dy, view_cos)
    }

    /// The shaded fragment at pixel `(x, y)`, given that pixel's
    /// barycentric coordinates `b` and `depth` (as
    /// [`barycentric`](Self::barycentric) and [`depth`](Self::depth)
    /// return them): perspective-correct uv and derivatives, and the
    /// camera angle of the surface.
    pub fn fragment(
        &self,
        x: u32,
        y: u32,
        b: (f32, f32, f32),
        depth: f32,
        texture: TextureId,
    ) -> Fragment {
        let (uv, duv_dx, duv_dy, view_cos) = self.shade_point(b);
        Fragment {
            x,
            y,
            depth,
            uv,
            duv_dx,
            duv_dy,
            camera_angle: Radians::new(view_cos.clamp(0.0, 1.0).acos()),
            texture,
        }
    }

    /// Depth at barycentric `b` (screen-space linear, as hardware does).
    pub fn depth(&self, b: (f32, f32, f32)) -> f32 {
        Self::interp_linear(self.z, b)
    }

    /// Minimum vertex depth — the conservative value hierarchical Z tests
    /// against a tile's stored maximum.
    pub fn min_depth(&self) -> f32 {
        self.z[0].min(self.z[1]).min(self.z[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx_types::Vec4;

    fn unit_tri() -> [ClipVertex; 3] {
        // An on-screen triangle in NDC, w = 1 everywhere (no perspective).
        [
            ClipVertex::new(Vec4::new(-0.5, -0.5, 0.0, 1.0), Vec2::new(0.0, 0.0), 1.0),
            ClipVertex::new(Vec4::new(0.5, -0.5, 0.0, 1.0), Vec2::new(1.0, 0.0), 1.0),
            ClipVertex::new(Vec4::new(0.0, 0.5, 0.0, 1.0), Vec2::new(0.5, 1.0), 1.0),
        ]
    }

    #[test]
    fn setup_computes_bbox_inside_viewport() {
        let s = TriangleSetup::new(&unit_tri(), 100, 100).expect("valid triangle");
        assert!(s.bbox.x0 >= 0 && s.bbox.x1 <= 100);
        assert!(!s.bbox.is_empty());
        assert!(s.area2 > 0.0);
    }

    #[test]
    fn degenerate_triangle_rejected() {
        let v = ClipVertex::new(Vec4::new(0.0, 0.0, 0.0, 1.0), Vec2::ZERO, 1.0);
        assert!(TriangleSetup::new(&[v, v, v], 100, 100).is_none());
    }

    #[test]
    fn backfacing_triangle_is_flipped_not_dropped() {
        let t = unit_tri();
        let flipped = [t[0], t[2], t[1]];
        let s = TriangleSetup::new(&flipped, 100, 100).expect("two-sided");
        assert!(s.area2 > 0.0);
    }

    #[test]
    fn barycentric_centroid_is_inside() {
        let s = TriangleSetup::new(&unit_tri(), 100, 100).unwrap();
        // The screen centroid.
        let c = (s.screen[0] + s.screen[1] + s.screen[2]) / 3.0;
        let b = s.barycentric(c.x as i32, c.y as i32);
        assert!(TriangleSetup::inside(b));
        assert!((b.0 + b.1 + b.2 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn point_outside_fails_inside_test() {
        let s = TriangleSetup::new(&unit_tri(), 100, 100).unwrap();
        let b = s.barycentric(0, 0); // screen corner, outside the centered triangle
        assert!(!TriangleSetup::inside(b));
    }

    #[test]
    fn uv_interpolates_to_vertex_values_at_corners() {
        let s = TriangleSetup::new(&unit_tri(), 100, 100).unwrap();
        // Evaluate exactly at vertex 0's barycentric (1,0,0).
        let (uv, _, _, cos) = s.shade_point((1.0, 0.0, 0.0));
        assert!(
            (uv.x - 0.0).abs() < 1e-5,
            "vertex 0 keeps its slot after winding fix"
        );
        assert!((cos - 1.0).abs() < 1e-5);
        // Winding may have been flipped; corners 1 and 2 carry the other
        // two vertex uvs in some order.
        let (uv1, _, _, _) = s.shade_point((0.0, 1.0, 0.0));
        let (uv2, _, _, _) = s.shade_point((0.0, 0.0, 1.0));
        let mut xs = [uv1.x, uv2.x];
        xs.sort_by(f32::total_cmp);
        assert!((xs[0] - 0.5).abs() < 1e-5 && (xs[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gradient_of_linear_function_is_exact() {
        let s = TriangleSetup::new(&unit_tri(), 100, 100).unwrap();
        // Build per-vertex values of the linear function f = 2x + 3y + 1
        // over screen coordinates; the gradient must come back (2, 3).
        let v = [
            2.0 * s.screen[0].x + 3.0 * s.screen[0].y + 1.0,
            2.0 * s.screen[1].x + 3.0 * s.screen[1].y + 1.0,
            2.0 * s.screen[2].x + 3.0 * s.screen[2].y + 1.0,
        ];
        let (dx, dy) = s.gradient(v);
        assert!((dx - 2.0).abs() < 1e-3);
        assert!((dy - 3.0).abs() < 1e-3);
    }

    #[test]
    fn uv_derivatives_match_finite_differences() {
        // A perspective triangle: w varies across vertices.
        let tri = [
            ClipVertex::new(Vec4::new(-0.8, -0.8, 0.0, 1.0), Vec2::new(0.0, 0.0), 1.0),
            ClipVertex::new(Vec4::new(1.6, -1.6, 0.0, 2.0), Vec2::new(1.0, 0.0), 1.0),
            ClipVertex::new(Vec4::new(0.0, 1.5, 0.0, 1.5), Vec2::new(0.5, 1.0), 1.0),
        ];
        let s = TriangleSetup::new(&tri, 200, 200).unwrap();
        // Pick an interior pixel.
        let c = (s.screen[0] + s.screen[1] + s.screen[2]) / 3.0;
        let (px, py) = (c.x as i32, c.y as i32);
        let b = s.barycentric(px, py);
        assert!(TriangleSetup::inside(b));
        let (uv, duv_dx, duv_dy, _) = s.shade_point(b);
        let (uv_r, _, _, _) = s.shade_point(s.barycentric(px + 1, py));
        let (uv_d, _, _, _) = s.shade_point(s.barycentric(px, py + 1));
        assert!(
            (duv_dx.x - (uv_r.x - uv.x)).abs() < 5e-3,
            "{} vs {}",
            duv_dx.x,
            uv_r.x - uv.x
        );
        assert!((duv_dy.y - (uv_d.y - uv.y)).abs() < 5e-3);
    }

    #[test]
    fn min_depth_is_lower_bound() {
        let s = TriangleSetup::new(&unit_tri(), 100, 100).unwrap();
        let c = (s.screen[0] + s.screen[1] + s.screen[2]) / 3.0;
        let b = s.barycentric(c.x as i32, c.y as i32);
        assert!(s.depth(b) >= s.min_depth() - 1e-6);
    }
}
