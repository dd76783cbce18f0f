//! Scene assembly: geometry + textures + a camera walkthrough.
//!
//! Besides the one-shot builders ([`build_scene`] /
//! [`build_scene_unchecked`]), this module provides [`SceneCache`]: a
//! thread-safe, memoizing store of built traces. A parallel sweep (see
//! `pimgfx-bench`) runs many `(game, resolution, variant)` cells that
//! share the same scene; the cache builds each `(game, resolution)`
//! trace once and hands every worker an [`Arc`] to it instead of
//! regenerating the geometry and textures per design variant.

use crate::games::{Game, GameProfile, Resolution};
use crate::mesh;
use crate::procedural::{texture_set, TextureKind};
use crate::synthetic::{synthesize, Workload};
use pimgfx_raster::{Camera, Vertex};
use pimgfx_texture::MippedTexture;
use pimgfx_types::{FxHashMap, TextureId, Vec3};
use std::sync::{Arc, Mutex, PoisonError};

/// One draw call: a triangle list bound to a texture.
#[derive(Debug, Clone)]
pub struct DrawCall {
    /// Triangles in world space.
    pub triangles: Vec<[Vertex; 3]>,
    /// Bound texture.
    pub texture: TextureId,
}

impl DrawCall {
    /// Triangle count.
    pub fn len(&self) -> usize {
        self.triangles.len()
    }

    /// True when the draw has no triangles.
    pub fn is_empty(&self) -> bool {
        self.triangles.is_empty()
    }
}

/// A renderable trace: static scene geometry, its textures, and one
/// camera per frame of the walkthrough.
#[derive(Debug, Clone)]
pub struct SceneTrace {
    /// The workload identity this trace renders: a Table II game or a
    /// synthetic spec. It is the trace's cache/report key.
    pub workload: Workload,
    /// Frame resolution.
    pub resolution: Resolution,
    /// Scene textures, indexed by [`TextureId`].
    pub textures: Vec<MippedTexture>,
    /// Static draw calls replayed every frame.
    pub draws: Vec<DrawCall>,
    /// One camera per frame.
    pub cameras: Vec<Camera>,
    /// Fragment-shader ALU ops per pixel (from the game profile).
    pub shader_alu_ops: u32,
}

impl SceneTrace {
    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.resolution.dims().0
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.resolution.dims().1
    }

    /// Number of frames in the walkthrough.
    pub fn frame_count(&self) -> usize {
        self.cameras.len()
    }

    /// Total triangles per frame.
    pub fn triangles_per_frame(&self) -> usize {
        self.draws.iter().map(DrawCall::len).sum()
    }

    /// Looks up a texture by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn texture(&self, id: TextureId) -> &MippedTexture {
        &self.textures[id.index()]
    }
}

// Scene traces cross sweep-worker threads by shared reference; keep the
// guarantee checked at compile time so a future field cannot silently
// drop it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SceneTrace>();
};

/// A thread-safe, memoizing cache of walkthrough traces.
///
/// Every `(game, resolution)` column is built at most once (per cache);
/// concurrent readers share the result through an [`Arc`]. This is what
/// lets a parallel sweep fan design variants of the same column out
/// across workers without regenerating the scene per variant.
///
/// By default the cache is unbounded — a batch sweep touches each
/// column once, so nothing ever needs to be dropped. A long-lived
/// process (the `pimgfx-serve` daemon) instead constructs it with
/// [`SceneCache::with_capacity`], which bounds the resident column
/// count with least-recently-used eviction; evictions are counted and
/// surfaced through [`SceneCache::evictions`].
///
/// # Examples
///
/// ```
/// use pimgfx_workloads::{Game, Resolution, SceneCache};
///
/// let cache = SceneCache::new(1);
/// let a = cache.get(Game::Doom3, Resolution::R320x240);
/// let b = cache.get(Game::Doom3, Resolution::R320x240);
/// assert!(std::sync::Arc::ptr_eq(&a, &b), "second get is a cache hit");
/// ```
#[derive(Debug)]
pub struct SceneCache {
    frames: usize,
    capacity: Option<usize>,
    // lock:rank(30, workloads.scene.cache)
    inner: Mutex<CacheState>,
}

/// Mutex-guarded interior of a [`SceneCache`]: the memo map plus the
/// recency list (least-recently-used first) and the eviction counter.
#[derive(Debug, Default)]
struct CacheState {
    map: FxHashMap<(Workload, Resolution), Arc<SceneTrace>>,
    lru: Vec<(Workload, Resolution)>,
    evictions: u64,
}

impl SceneCache {
    /// Creates an unbounded cache whose traces all have `frames` frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero (a trace needs at least one frame).
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "a trace needs at least one frame");
        Self {
            frames,
            capacity: None,
            inner: Mutex::new(CacheState::default()),
        }
    }

    /// Creates a cache bounded to `capacity` resident columns; the
    /// least-recently-used column is evicted when a build would exceed
    /// the bound. A re-requested evicted column is simply rebuilt (the
    /// builds are deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `frames` or `capacity` is zero.
    pub fn with_capacity(frames: usize, capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "a bounded cache needs capacity for at least one column"
        );
        let mut cache = Self::new(frames);
        cache.capacity = Some(capacity);
        cache
    }

    /// Frames per cached trace.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The resident-column bound, or `None` for an unbounded cache.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of columns evicted so far (always 0 for an unbounded
    /// cache). Monotonic over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Number of distinct columns resident right now.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when no column is resident.
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }

    /// Returns the trace for a benchmark column, building it on first
    /// use.
    ///
    /// The (deterministic, hence idempotent) build runs outside the
    /// cache lock so other columns stay available while one builds; if
    /// two threads race on the same cold column, the first insertion
    /// wins and both receive the same [`Arc`]. On a bounded cache the
    /// access also refreshes the column's recency, and the insert
    /// evicts least-recently-used columns down to the bound (handed-out
    /// [`Arc`]s stay valid — eviction only drops the cache's own
    /// reference).
    ///
    /// # Panics
    ///
    /// Panics if a game workload's resolution is not in its Table II
    /// set, or a synthetic workload's spec fails validation (same
    /// contracts as [`build_scene`] / [`build_workload`]).
    pub fn get(&self, workload: impl Into<Workload>, res: Resolution) -> Arc<SceneTrace> {
        let key = (workload.into(), res);
        {
            let mut st = self.lock();
            if let Some(scene) = st.map.get(&key) {
                let scene = Arc::clone(scene);
                Self::touch(&mut st.lru, key);
                return scene;
            }
        }
        let built = Arc::new(build_workload(key.0, res, self.frames));
        let mut st = self.lock();
        let out = Arc::clone(st.map.entry(key).or_insert_with(|| Arc::clone(&built)));
        Self::touch(&mut st.lru, key);
        if let Some(cap) = self.capacity {
            while st.map.len() > cap && !st.lru.is_empty() {
                let victim = st.lru.remove(0);
                st.map.remove(&victim);
                st.evictions += 1;
            }
        }
        out
    }

    /// Moves `key` to the most-recently-used end of the recency list.
    fn touch(lru: &mut Vec<(Workload, Resolution)>, key: (Workload, Resolution)) {
        lru.retain(|k| *k != key);
        lru.push(key);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        // A poisoned lock only means another worker panicked mid-insert;
        // the map itself is always in a consistent state.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Builds the trace for any workload: Table II validation + profile
/// build for games, [`synthesize`] for synthetic specs.
///
/// # Panics
///
/// Panics if `frames` is zero, a game's resolution is not in its
/// Table II set, or a synthetic spec fails validation.
pub fn build_workload(workload: Workload, resolution: Resolution, frames: usize) -> SceneTrace {
    match workload {
        Workload::Game(game) => build_scene(game, resolution, frames),
        Workload::Synthetic(spec) => synthesize(&spec, resolution, frames),
    }
}

/// Builds the walkthrough trace for a `(game, resolution)` benchmark
/// column with `frames` frames.
///
/// The scene is a textured corridor: a floor and ceiling seen at grazing
/// angles (the anisotropy-heavy content), two side walls (moderately
/// oblique), and a few camera-facing props (isotropic). The camera walks
/// forward and yaws slightly each frame per the game profile.
///
/// # Panics
///
/// Panics if `frames` is zero or the resolution is not in the game's
/// Table II set (use [`build_scene_unchecked`] for exploratory configs).
pub fn build_scene(game: Game, resolution: Resolution, frames: usize) -> SceneTrace {
    let profile = game.profile();
    assert!(
        profile.resolutions.contains(&resolution),
        "{game} was not evaluated at {resolution} in Table II"
    );
    build_scene_unchecked(&profile, resolution, frames)
}

/// Builds a trace without the Table II resolution check (for sweeps and
/// tests at reduced resolutions).
///
/// # Panics
///
/// Panics if `frames` is zero.
pub fn build_scene_unchecked(
    profile: &GameProfile,
    resolution: Resolution,
    frames: usize,
) -> SceneTrace {
    assert!(frames > 0, "a trace needs at least one frame");

    // Scale texture detail with resolution the way shipped games do
    // (mip bias toward smaller textures at lower resolutions).
    // Full-detail textures at every resolution: shipped games of this
    // era did not rescale assets per display mode, and the resulting
    // cache pressure is what makes texture fetches dominate off-chip
    // traffic (Fig. 2).
    let tex_size = profile.texture_size;
    let _ = &resolution;

    let textures = texture_set(
        &TextureKind::ALL,
        profile.texture_count,
        tex_size,
        profile.seed,
    );

    let tex = |i: u32| TextureId::new(i % profile.texture_count);
    let q = profile.floor_quads;
    let d = profile.corridor_depth;

    // Floor and ceiling: the grazing-angle, anisotropy-heavy surfaces.
    let mut draws = vec![DrawCall {
        triangles: mesh::floor(
            0.0,
            8.0,
            d,
            q,
            profile.uv_tiles,
            profile.bumpiness,
            profile.seed,
        ),
        texture: tex(0),
    }];
    draws.push(DrawCall {
        triangles: mesh::grid(
            Vec3::new(-4.0, 4.0, 0.0),
            Vec3::new(8.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, -d),
            -Vec3::Y,
            q,
            q,
            profile.uv_tiles,
            profile.bumpiness,
            profile.seed ^ 1,
        ),
        texture: tex(1),
    });

    // Side walls: moderately oblique.
    draws.push(DrawCall {
        triangles: mesh::wall(
            -4.0,
            0.0,
            4.0,
            d,
            q,
            profile.uv_tiles * 0.75,
            profile.bumpiness,
            profile.seed ^ 2,
        ),
        texture: tex(2),
    });
    draws.push(DrawCall {
        triangles: mesh::wall(
            4.0,
            0.0,
            4.0,
            d,
            q,
            profile.uv_tiles * 0.75,
            profile.bumpiness,
            profile.seed ^ 3,
        ),
        texture: tex(3),
    });

    // Facing props spaced down the corridor: isotropic content and
    // overdraw against the walls behind them.
    for p in 0..profile.facing_props {
        let z = -6.0 - (p as f32) * d / (profile.facing_props.max(1) as f32 + 1.0);
        let x = if p % 2 == 0 { -1.5 } else { 1.5 };
        draws.push(DrawCall {
            triangles: mesh::facing_quad(
                Vec3::new(x, 1.5, z),
                1.0,
                2.0,
                profile.bumpiness * 0.5,
                profile.seed ^ (0x100 + u64::from(p)),
            ),
            texture: tex(4 + p),
        });
    }

    // Overdraw layers: translucent-style full-width decals close to the
    // walls, drawn after (and thus z-tested against) the scene.
    for layer in 0..profile.overdraw_layers.saturating_sub(1) {
        draws.push(DrawCall {
            triangles: mesh::facing_quad(
                Vec3::new(0.0, 2.0, -10.0 - layer as f32 * 8.0),
                3.0,
                1.0,
                0.0,
                profile.seed ^ (0x200 + u64::from(layer)),
            ),
            texture: tex(5 + layer),
        });
    }

    // Camera walkthrough: forward motion with slight yaw, looking down
    // the corridor from near floor height (this is what makes the floor
    // grazing).
    let (w, h) = resolution.dims();
    let aspect = w as f32 / h as f32;
    let cameras = (0..frames)
        .map(|f| {
            let t = f as f32;
            let yaw = t * profile.camera_yaw_step;
            let eye = Vec3::new(
                yaw.sin() * 0.5,
                profile.camera_height,
                -t * profile.camera_step,
            );
            let target = eye + Vec3::new(yaw.sin(), -0.06, -yaw.cos());
            Camera::look_at(eye, target, Vec3::Y, std::f32::consts::FRAC_PI_3, aspect)
        })
        .collect();

    SceneTrace {
        workload: Workload::Game(profile.game),
        resolution,
        textures,
        draws,
        cameras,
        shader_alu_ops: profile.shader_alu_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_builds_for_every_benchmark_column() {
        for (game, res) in Game::benchmark_matrix() {
            let s = build_scene(game, res, 2);
            assert!(!s.draws.is_empty(), "{game}@{res}");
            assert!(s.triangles_per_frame() > 50);
            assert_eq!(s.frame_count(), 2);
            assert_eq!(s.textures.len(), game.profile().texture_count as usize);
        }
    }

    #[test]
    fn scene_is_deterministic() {
        let a = build_scene(Game::Fear, Resolution::R640x480, 1);
        let b = build_scene(Game::Fear, Resolution::R640x480, 1);
        assert_eq!(a.triangles_per_frame(), b.triangles_per_frame());
        assert_eq!(
            a.draws[0].triangles[0][0].position,
            b.draws[0].triangles[0][0].position
        );
        assert_eq!(
            a.textures[0].level(0).texel(3, 3),
            b.textures[0].level(0).texel(3, 3)
        );
    }

    #[test]
    #[should_panic(expected = "Table II")]
    fn unlisted_resolution_is_rejected() {
        let _ = build_scene(Game::Riddick, Resolution::R1280x1024, 1);
    }

    #[test]
    fn unchecked_builder_allows_any_resolution() {
        let p = Game::Riddick.profile();
        let s = build_scene_unchecked(&p, Resolution::R320x240, 1);
        assert_eq!(s.width(), 320);
    }

    #[test]
    fn texture_detail_is_resolution_independent() {
        // Games of this era ship one asset set regardless of display
        // mode; the resulting cache pressure at low resolutions is part
        // of the Fig. 2 traffic profile.
        let hi = build_scene(Game::Doom3, Resolution::R1280x1024, 1);
        let lo = build_scene(Game::Doom3, Resolution::R320x240, 1);
        assert_eq!(hi.textures[0].width(), lo.textures[0].width());
        assert_eq!(hi.textures[0].width(), Game::Doom3.profile().texture_size);
    }

    #[test]
    fn cameras_advance_each_frame() {
        let s = build_scene(Game::Doom3, Resolution::R320x240, 3);
        assert!(s.cameras[1].eye().z < s.cameras[0].eye().z);
        assert!(s.cameras[2].eye().z < s.cameras[1].eye().z);
    }

    #[test]
    fn all_draw_texture_ids_resolve() {
        let s = build_scene(Game::Fear, Resolution::R1280x1024, 1);
        for d in &s.draws {
            assert!(d.texture.index() < s.textures.len());
            let _ = s.texture(d.texture);
        }
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        let _ = build_scene(Game::Doom3, Resolution::R320x240, 0);
    }

    #[test]
    fn scene_cache_builds_once_and_shares() {
        let cache = SceneCache::new(1);
        assert!(cache.is_empty());
        let a = cache.get(Game::Doom3, Resolution::R320x240);
        let b = cache.get(Game::Doom3, Resolution::R320x240);
        assert!(Arc::ptr_eq(&a, &b), "same column shares one trace");
        assert_eq!(cache.len(), 1);
        assert_eq!(a.frame_count(), 1);
    }

    #[test]
    fn scene_cache_is_shareable_across_threads() {
        let cache = SceneCache::new(1);
        let texels = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        cache.get(Game::Doom3, Resolution::R320x240).textures[0]
                            .level(0)
                            .texel(3, 3)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect::<Vec<_>>()
        });
        assert_eq!(texels[0], texels[1], "threads observe the same scene");
        assert_eq!(cache.len(), 1, "racing builds collapse to one entry");
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn scene_cache_rejects_zero_frames() {
        let _ = SceneCache::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn scene_cache_rejects_zero_capacity() {
        let _ = SceneCache::with_capacity(1, 0);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = SceneCache::new(1);
        assert_eq!(cache.capacity(), None);
        cache.get(Game::Doom3, Resolution::R320x240);
        cache.get(Game::Fear, Resolution::R320x240);
        cache.get(Game::Doom3, Resolution::R640x480);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = SceneCache::with_capacity(1, 2);
        assert_eq!(cache.capacity(), Some(2));
        let doom = cache.get(Game::Doom3, Resolution::R320x240);
        cache.get(Game::Fear, Resolution::R320x240);
        // Touch doom3 so fear becomes the LRU victim.
        cache.get(Game::Doom3, Resolution::R320x240);
        cache.get(Game::Doom3, Resolution::R640x480);
        assert_eq!(cache.len(), 2, "bound holds");
        assert_eq!(cache.evictions(), 1, "fear evicted");
        // The handed-out Arc stays valid, and doom3 is still a hit.
        assert_eq!(doom.frame_count(), 1);
        let doom_again = cache.get(Game::Doom3, Resolution::R320x240);
        assert!(
            Arc::ptr_eq(&doom, &doom_again),
            "doom3 survived the eviction"
        );
        // An evicted column rebuilds into a fresh allocation.
        let fear_again = cache.get(Game::Fear, Resolution::R320x240);
        assert_eq!(fear_again.workload, Workload::Game(Game::Fear));
        assert_eq!(cache.evictions(), 2, "rebuilding fear evicted doom3@640");
    }

    #[test]
    fn cache_keys_games_and_synthetics_separately() {
        let spec = crate::synthetic::SyntheticSpec {
            seed: 7,
            triangles: 64,
            textures: 2,
            texture_size: 16,
            kind_mask: 0x3,
            grazing_milli: 500,
            overdraw: 1,
            path_frames: 2,
        };
        let cache = SceneCache::new(1);
        let syn = cache.get(spec, Resolution::R1920x1080);
        let game = cache.get(Game::Doom3, Resolution::R320x240);
        assert_eq!(cache.len(), 2);
        assert_eq!(syn.workload, Workload::Synthetic(spec));
        assert_eq!(syn.width(), 1920);
        assert_eq!(game.workload.as_game(), Some(Game::Doom3));
        let again = cache.get(Workload::Synthetic(spec), Resolution::R1920x1080);
        assert!(Arc::ptr_eq(&syn, &again), "spec-keyed lookup hits");
    }
}
