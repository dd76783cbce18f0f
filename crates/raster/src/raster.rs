//! Tile-based scan conversion.

use crate::camera::Camera;
use crate::clip::clip_triangle;
use crate::fragment::Fragment;
use crate::setup::TriangleSetup;
use crate::vertex::Vertex;
use crate::zbuffer::{DepthBuffer, ZOutcome};
use pimgfx_types::{TextureId, TileCoord};

/// Counters produced while rasterizing (inputs to the timing layer and to
/// the geometry/Z rows of the Fig. 2 traffic breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasterStats {
    /// Triangles submitted.
    pub triangles_in: u64,
    /// Triangles surviving clipping (counting splits).
    pub triangles_clipped: u64,
    /// Triangles rejected wholesale by hierarchical Z.
    pub hiz_rejected: u64,
    /// Per-pixel depth tests executed.
    pub z_tests: u64,
    /// Fragments that passed early Z and were emitted.
    pub fragments_out: u64,
    /// Screen tiles touched by emitted fragments.
    pub tiles_touched: u64,
}

/// The tile-based rasterizer: owns the depth buffer and walks triangles
/// tile by tile, emitting early-Z-surviving fragments.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Rasterizer {
    width: u32,
    height: u32,
    tile_px: u32,
    zbuffer: DepthBuffer,
    stats: RasterStats,
    bound_texture: TextureId,
}

impl Rasterizer {
    /// Table I tile size: 16×16 pixels.
    pub const DEFAULT_TILE_PX: u32 = 16;

    /// Creates a rasterizer for a `width`×`height` framebuffer with the
    /// default tile size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        Self::with_tile_size(width, height, Self::DEFAULT_TILE_PX)
    }

    /// Creates a rasterizer with an explicit tile size.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn with_tile_size(width: u32, height: u32, tile_px: u32) -> Self {
        Self {
            width,
            height,
            tile_px,
            zbuffer: DepthBuffer::new(width, height, tile_px),
            stats: RasterStats::default(),
            bound_texture: TextureId::new(0),
        }
    }

    /// Framebuffer width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Framebuffer height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Tile edge in pixels.
    pub fn tile_px(&self) -> u32 {
        self.tile_px
    }

    /// Binds the texture subsequent fragments will reference.
    pub fn bind_texture(&mut self, tex: TextureId) {
        self.bound_texture = tex;
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &RasterStats {
        &self.stats
    }

    /// Read access to the depth buffer (for ROP/traffic modeling).
    pub fn depth_buffer(&self) -> &DepthBuffer {
        &self.zbuffer
    }

    /// Clears depth and statistics for a new frame.
    pub fn begin_frame(&mut self) {
        self.zbuffer.clear();
        self.stats = RasterStats::default();
    }

    /// Transforms, clips, and scans one triangle; returns the surviving
    /// fragments in tile-major order.
    pub fn rasterize(&mut self, camera: &Camera, tri: &[Vertex; 3]) -> Vec<Fragment> {
        let mut shade = Shade {
            out: Vec::new(),
            texture: self.bound_texture,
        };
        self.cover(camera, tri, &mut shade);
        shade.out
    }

    /// The coverage pass of [`rasterize`](Self::rasterize): transforms,
    /// clips, and sets up one triangle, then Hi-Z-tests every surviving
    /// sub-triangle and scans it tile by tile, depth-testing each pixel
    /// inside it. Decisions and counters are exactly those of
    /// `rasterize`; what survives goes to `sink` in scan order instead of
    /// being shaded here.
    pub fn cover(&mut self, camera: &Camera, tri: &[Vertex; 3], sink: &mut impl CoverageSink) {
        self.stats.triangles_in += 1;
        for sub in clip_triangle(camera.transform_triangle(tri)) {
            self.stats.triangles_clipped += 1;
            if let Some(setup) = TriangleSetup::new(&sub, self.width, self.height) {
                self.scan(&setup, sink);
            }
        }
    }

    /// Scans a prepared triangle tile by tile.
    fn scan(&mut self, setup: &TriangleSetup, sink: &mut impl CoverageSink) {
        // Hierarchical Z: drop the whole triangle when every overlapped
        // tile is already covered by closer geometry.
        if self.zbuffer.hiz_reject(&setup.bbox, setup.min_depth()) {
            self.stats.hiz_rejected += 1;
            return;
        }
        sink.triangle(setup, self.bound_texture);
        for tile in setup.bbox.tiles(self.tile_px) {
            let r = tile.pixel_rect(self.tile_px).intersect(&setup.bbox);
            let mut emitted = 0u64;
            for py in r.y0..r.y1 {
                for px in r.x0..r.x1 {
                    let b = setup.barycentric(px, py);
                    if !TriangleSetup::inside(b) {
                        continue;
                    }
                    let depth = setup.depth(b);
                    if self.zbuffer.test_and_update(px as u32, py as u32, depth) == ZOutcome::Fail {
                        continue;
                    }
                    sink.pixel(setup, tile, px as u32, py as u32, b, depth);
                    emitted += 1;
                }
            }
            if emitted > 0 {
                self.zbuffer.refresh_tile_max(tile.tx, tile.ty);
                self.stats.fragments_out += emitted;
                self.stats.tiles_touched += 1;
            }
        }
        // The buffer counts every per-pixel depth test.
        let (tests, _) = self.zbuffer.stats();
        self.stats.z_tests = tests;
    }
}

/// Receives the decisions of [`Rasterizer::cover`] in scan order: each
/// clipped sub-triangle that survives setup and Hi-Z, then each of its
/// pixels that passes the inside and depth tests.
pub trait CoverageSink {
    /// A sub-triangle is about to be scanned with `texture` bound.
    fn triangle(&mut self, setup: &TriangleSetup, texture: TextureId);

    /// Pixel `(x, y)` of `tile` passed the depth test, with barycentric
    /// coordinates `b` and interpolated `depth`, for the sub-triangle of
    /// the latest [`triangle`](Self::triangle) call.
    fn pixel(
        &mut self,
        setup: &TriangleSetup,
        tile: TileCoord,
        x: u32,
        y: u32,
        b: (f32, f32, f32),
        depth: f32,
    );
}

/// The sink behind [`Rasterizer::rasterize`]: shades every covered pixel
/// on the spot.
struct Shade {
    out: Vec<Fragment>,
    texture: TextureId,
}

impl CoverageSink for Shade {
    fn triangle(&mut self, _setup: &TriangleSetup, texture: TextureId) {
        self.texture = texture;
    }

    fn pixel(
        &mut self,
        setup: &TriangleSetup,
        _tile: TileCoord,
        x: u32,
        y: u32,
        b: (f32, f32, f32),
        depth: f32,
    ) {
        self.out.push(setup.fragment(x, y, b, depth, self.texture));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx_types::{Vec2, Vec3};

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, 3.0), Vec3::ZERO, Vec3::Y, 1.0, 1.0)
    }

    fn quad_tri(z: f32) -> [Vertex; 3] {
        [
            Vertex::new(Vec3::new(-1.0, -1.0, z), Vec3::Z, Vec2::new(0.0, 0.0)),
            Vertex::new(Vec3::new(1.0, -1.0, z), Vec3::Z, Vec2::new(1.0, 0.0)),
            Vertex::new(Vec3::new(0.0, 1.0, z), Vec3::Z, Vec2::new(0.5, 1.0)),
        ]
    }

    #[test]
    fn onscreen_triangle_emits_fragments() {
        let mut r = Rasterizer::new(64, 64);
        let frags = r.rasterize(&cam(), &quad_tri(0.0));
        assert!(!frags.is_empty());
        assert_eq!(r.stats().fragments_out, frags.len() as u64);
        assert!(r.stats().tiles_touched >= 1);
        // All fragments are inside the viewport.
        assert!(frags.iter().all(|f| f.x < 64 && f.y < 64));
    }

    #[test]
    fn fragments_have_valid_interpolants() {
        let mut r = Rasterizer::new(64, 64);
        let frags = r.rasterize(&cam(), &quad_tri(0.0));
        for f in &frags {
            assert!(f.depth >= 0.0 && f.depth <= 1.0);
            assert!(f.uv.x >= -0.01 && f.uv.x <= 1.01, "uv {:?}", f.uv);
            assert!(f.camera_angle.as_f32() >= 0.0);
            assert!(f.camera_angle.as_f32() <= std::f32::consts::FRAC_PI_2 + 1e-4);
        }
    }

    #[test]
    fn clipped_triangles_do_not_double_count_fragments() {
        let mut r = Rasterizer::new(64, 64);
        // One vertex behind the camera: near-plane clipping splits the
        // triangle into two sub-triangles scanned into one output vec.
        let tri = [
            Vertex::new(Vec3::new(-1.0, -1.0, 0.0), Vec3::Z, Vec2::ZERO),
            Vertex::new(Vec3::new(1.0, -1.0, 0.0), Vec3::Z, Vec2::new(1.0, 0.0)),
            Vertex::new(Vec3::new(0.0, 1.0, 4.5), Vec3::Z, Vec2::new(0.5, 1.0)),
        ];
        let frags = r.rasterize(&cam(), &tri);
        assert!(
            r.stats().triangles_clipped >= 2,
            "triangle must actually split for this regression test"
        );
        assert_eq!(r.stats().fragments_out, frags.len() as u64);
    }

    #[test]
    fn occluded_triangle_emits_nothing() {
        let mut r = Rasterizer::new(64, 64);
        let front = r.rasterize(&cam(), &quad_tri(1.0)); // closer to camera
        assert!(!front.is_empty());
        let behind = r.rasterize(&cam(), &quad_tri(-1.0)); // strictly behind
                                                           // Early Z (plus HiZ) suppresses everything covered by the front tri.
        assert!(behind.len() < front.len() / 2);
    }

    #[test]
    fn hiz_rejects_after_coverage() {
        let mut r = Rasterizer::new(32, 32);
        // Two large triangles forming a near full-screen quad.
        let a = [
            Vertex::new(Vec3::new(-3.0, -3.0, 1.0), Vec3::Z, Vec2::ZERO),
            Vertex::new(Vec3::new(3.0, -3.0, 1.0), Vec3::Z, Vec2::new(1.0, 0.0)),
            Vertex::new(Vec3::new(-3.0, 3.0, 1.0), Vec3::Z, Vec2::new(0.0, 1.0)),
        ];
        let b = [
            Vertex::new(Vec3::new(3.0, -3.0, 1.0), Vec3::Z, Vec2::new(1.0, 0.0)),
            Vertex::new(Vec3::new(3.0, 3.0, 1.0), Vec3::Z, Vec2::ONE),
            Vertex::new(Vec3::new(-3.0, 3.0, 1.0), Vec3::Z, Vec2::new(0.0, 1.0)),
        ];
        r.rasterize(&cam(), &a);
        r.rasterize(&cam(), &b);
        let before = r.stats().hiz_rejected;
        // A far triangle covered by the quad: HiZ should reject it whole.
        let far = r.rasterize(&cam(), &quad_tri(-2.0));
        assert!(far.is_empty());
        assert!(r.stats().hiz_rejected > before);
    }

    #[test]
    fn offscreen_triangle_is_clipped_away() {
        let mut r = Rasterizer::new(64, 64);
        let tri = [
            Vertex::new(Vec3::new(100.0, 100.0, 0.0), Vec3::Z, Vec2::ZERO),
            Vertex::new(Vec3::new(101.0, 100.0, 0.0), Vec3::Z, Vec2::ZERO),
            Vertex::new(Vec3::new(100.0, 101.0, 0.0), Vec3::Z, Vec2::ZERO),
        ];
        assert!(r.rasterize(&cam(), &tri).is_empty());
    }

    #[test]
    fn begin_frame_resets_depth() {
        let mut r = Rasterizer::new(64, 64);
        let first = r.rasterize(&cam(), &quad_tri(0.0)).len();
        let occluded = r.rasterize(&cam(), &quad_tri(-0.5)).len();
        assert!(occluded < first);
        r.begin_frame();
        let again = r.rasterize(&cam(), &quad_tri(-0.5)).len();
        assert!(again > occluded, "depth cleared, triangle visible again");
    }

    #[test]
    fn bound_texture_is_stamped_on_fragments() {
        let mut r = Rasterizer::new(64, 64);
        r.bind_texture(TextureId::new(42));
        let frags = r.rasterize(&cam(), &quad_tri(0.0));
        assert!(frags.iter().all(|f| f.texture == TextureId::new(42)));
    }

    #[test]
    fn fragment_count_roughly_matches_projected_area() {
        let mut r = Rasterizer::new(128, 128);
        let frags = r.rasterize(&cam(), &quad_tri(0.0));
        // The triangle spans roughly a third of a 128x128 viewport at
        // this camera distance; sanity-check the magnitude.
        assert!(frags.len() > 500, "got {}", frags.len());
        assert!(frags.len() < 128 * 128);
    }
}
