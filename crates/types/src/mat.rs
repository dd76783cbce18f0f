//! 4×4 column-major matrices for the geometry pipeline.

use crate::vec::{Vec3, Vec4};

/// A 4×4 matrix, stored column-major like OpenGL.
///
/// Used for model, view, and projection transforms in the geometry
/// processing stage of the simulated GPU.
///
/// # Examples
///
/// ```
/// use pimgfx_types::{Mat4, Vec3};
/// let m = Mat4::translation(Vec3::new(1.0, 0.0, 0.0));
/// assert_eq!(m.transform_point(Vec3::ZERO), Vec3::new(1.0, 0.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// Columns of the matrix.
    cols: [Vec4; 4],
}

impl Default for Mat4 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Mat4 {
    /// The identity matrix.
    pub const IDENTITY: Self = Self {
        cols: [
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        ],
    };

    /// Builds a matrix from four column vectors.
    pub const fn from_cols(c0: Vec4, c1: Vec4, c2: Vec4, c3: Vec4) -> Self {
        Self {
            cols: [c0, c1, c2, c3],
        }
    }

    /// Returns column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    #[inline]
    pub fn col(&self, i: usize) -> Vec4 {
        self.cols[i]
    }

    /// Returns row `i` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    #[inline]
    pub fn row(&self, i: usize) -> Vec4 {
        match i {
            0 => Vec4::new(
                self.cols[0].x,
                self.cols[1].x,
                self.cols[2].x,
                self.cols[3].x,
            ),
            1 => Vec4::new(
                self.cols[0].y,
                self.cols[1].y,
                self.cols[2].y,
                self.cols[3].y,
            ),
            2 => Vec4::new(
                self.cols[0].z,
                self.cols[1].z,
                self.cols[2].z,
                self.cols[3].z,
            ),
            3 => Vec4::new(
                self.cols[0].w,
                self.cols[1].w,
                self.cols[2].w,
                self.cols[3].w,
            ),
            #[expect(
                clippy::panic,
                reason = "documented bounds panic: row() mirrors slice-index semantics for i >= 4"
            )]
            _ => panic!("matrix row index {i} out of range"),
        }
    }

    /// Translation by `t`.
    pub fn translation(t: Vec3) -> Self {
        let mut m = Self::IDENTITY;
        m.cols[3] = Vec4::new(t.x, t.y, t.z, 1.0);
        m
    }

    /// Non-uniform scale.
    pub fn scale(s: Vec3) -> Self {
        Self::from_cols(
            Vec4::new(s.x, 0.0, 0.0, 0.0),
            Vec4::new(0.0, s.y, 0.0, 0.0),
            Vec4::new(0.0, 0.0, s.z, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Rotation about the X axis by `angle` radians.
    pub fn rotation_x(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Self::from_cols(
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, c, s, 0.0),
            Vec4::new(0.0, -s, c, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Rotation about the Y axis by `angle` radians.
    pub fn rotation_y(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Self::from_cols(
            Vec4::new(c, 0.0, -s, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(s, 0.0, c, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Rotation about the Z axis by `angle` radians.
    pub fn rotation_z(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Self::from_cols(
            Vec4::new(c, s, 0.0, 0.0),
            Vec4::new(-s, c, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Right-handed look-at view matrix.
    ///
    /// `eye` is the camera position, `target` the point looked at, and `up`
    /// the approximate up direction (must not be parallel to the view
    /// direction).
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Self {
        let f = (target - eye).normalized();
        let s = f.cross(up).normalized();
        let u = s.cross(f);
        Self::from_cols(
            Vec4::new(s.x, u.x, -f.x, 0.0),
            Vec4::new(s.y, u.y, -f.y, 0.0),
            Vec4::new(s.z, u.z, -f.z, 0.0),
            Vec4::new(-s.dot(eye), -u.dot(eye), f.dot(eye), 1.0),
        )
    }

    /// Right-handed perspective projection (OpenGL clip conventions,
    /// z ∈ [-w, w]).
    ///
    /// `fov_y` is the vertical field of view in radians, `aspect` is
    /// width/height.
    ///
    /// # Panics
    ///
    /// Debug-asserts `near > 0`, `far > near`, `aspect > 0` and
    /// `0 < fov_y < π`.
    pub fn perspective(fov_y: f32, aspect: f32, near: f32, far: f32) -> Self {
        debug_assert!(near > 0.0 && far > near, "invalid near/far planes");
        debug_assert!(aspect > 0.0, "invalid aspect ratio");
        debug_assert!(
            fov_y > 0.0 && fov_y < std::f32::consts::PI,
            "invalid field of view"
        );
        let f = 1.0 / (fov_y * 0.5).tan();
        let range = near - far;
        Self::from_cols(
            Vec4::new(f / aspect, 0.0, 0.0, 0.0),
            Vec4::new(0.0, f, 0.0, 0.0),
            Vec4::new(0.0, 0.0, (near + far) / range, -1.0),
            Vec4::new(0.0, 0.0, (2.0 * near * far) / range, 0.0),
        )
    }

    /// Matrix–vector product.
    #[inline]
    pub fn transform(&self, v: Vec4) -> Vec4 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z + self.cols[3] * v.w
    }

    /// Transforms a point (`w = 1`) and drops back to 3D without
    /// perspective division.
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.transform(Vec4::from_point(p)).xyz()
    }

    /// Transforms a direction (`w = 0`).
    #[inline]
    pub fn transform_direction(&self, d: Vec3) -> Vec3 {
        self.transform(Vec4::from_direction(d)).xyz()
    }

    /// Matrix–matrix product `self * rhs`.
    pub fn mul_mat(&self, rhs: &Self) -> Self {
        Self {
            cols: [
                self.transform(rhs.cols[0]),
                self.transform(rhs.cols[1]),
                self.transform(rhs.cols[2]),
                self.transform(rhs.cols[3]),
            ],
        }
    }

    /// Transpose.
    pub fn transposed(&self) -> Self {
        Self::from_cols(self.row(0), self.row(1), self.row(2), self.row(3))
    }
}

impl std::ops::Mul for Mat4 {
    type Output = Mat4;
    fn mul(self, rhs: Mat4) -> Mat4 {
        self.mul_mat(&rhs)
    }
}

impl std::ops::Mul<Vec4> for Mat4 {
    type Output = Vec4;
    fn mul(self, rhs: Vec4) -> Vec4 {
        self.transform(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: Vec3, b: Vec3, eps: f32) -> bool {
        (a - b).length() < eps
    }

    #[test]
    fn identity_is_neutral() {
        let v = Vec4::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(Mat4::IDENTITY * v, v);
        let m = Mat4::translation(Vec3::new(5.0, 6.0, 7.0));
        assert_eq!(Mat4::IDENTITY * m, m);
        assert_eq!(m * Mat4::IDENTITY, m);
    }

    #[test]
    fn translation_moves_points_not_directions() {
        let m = Mat4::translation(Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(m.transform_point(Vec3::ZERO), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(m.transform_direction(Vec3::X), Vec3::X);
    }

    #[test]
    fn scale_scales() {
        let m = Mat4::scale(Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(m.transform_point(Vec3::ONE), Vec3::new(2.0, 3.0, 4.0));
    }

    #[test]
    fn rotation_z_quarter_turn() {
        let m = Mat4::rotation_z(std::f32::consts::FRAC_PI_2);
        assert!(approx(m.transform_point(Vec3::X), Vec3::Y, 1e-6));
    }

    #[test]
    fn rotation_x_quarter_turn() {
        let m = Mat4::rotation_x(std::f32::consts::FRAC_PI_2);
        assert!(approx(m.transform_point(Vec3::Y), Vec3::Z, 1e-6));
    }

    #[test]
    fn rotation_y_quarter_turn() {
        let m = Mat4::rotation_y(std::f32::consts::FRAC_PI_2);
        assert!(approx(m.transform_point(Vec3::Z), Vec3::X, 1e-6));
    }

    #[test]
    fn look_at_centers_target_on_negative_z() {
        let eye = Vec3::new(0.0, 0.0, 5.0);
        let m = Mat4::look_at(eye, Vec3::ZERO, Vec3::Y);
        let t = m.transform_point(Vec3::ZERO);
        assert!(approx(t, Vec3::new(0.0, 0.0, -5.0), 1e-5));
        // The eye maps to the origin.
        assert!(approx(m.transform_point(eye), Vec3::ZERO, 1e-5));
    }

    #[test]
    fn perspective_maps_near_and_far_planes() {
        let near = 1.0;
        let far = 100.0;
        let m = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, near, far);
        let pn = (m * Vec4::from_point(Vec3::new(0.0, 0.0, -near))).project();
        let pf = (m * Vec4::from_point(Vec3::new(0.0, 0.0, -far))).project();
        assert!((pn.z + 1.0).abs() < 1e-5, "near plane should map to -1");
        assert!((pf.z - 1.0).abs() < 1e-4, "far plane should map to +1");
    }

    #[test]
    fn matrix_product_composes_transforms() {
        let t = Mat4::translation(Vec3::X);
        let s = Mat4::scale(Vec3::splat(2.0));
        // (t * s) p == t(s(p))
        let p = Vec3::new(1.0, 1.0, 1.0);
        let composed = (t * s).transform_point(p);
        let stepwise = t.transform_point(s.transform_point(p));
        assert!(approx(composed, stepwise, 1e-6));
    }

    #[test]
    fn transpose_involution() {
        let m = Mat4::look_at(Vec3::new(1.0, 2.0, 3.0), Vec3::ZERO, Vec3::Y);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn row_column_consistency() {
        let m = Mat4::perspective(1.0, 1.5, 0.1, 10.0);
        for i in 0..4 {
            let r = m.row(i);
            assert_eq!(r.x, m.col(0).dot(unit(i)));
            assert_eq!(r.y, m.col(1).dot(unit(i)));
        }
        fn unit(i: usize) -> Vec4 {
            let mut v = Vec4::ZERO;
            match i {
                0 => v.x = 1.0,
                1 => v.y = 1.0,
                2 => v.z = 1.0,
                _ => v.w = 1.0,
            }
            v
        }
    }
}
