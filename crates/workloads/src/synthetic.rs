//! Procedural synthetic workloads: a seeded, parameterized scene
//! generator plus the first-class [`Workload`] identity shared by the
//! caches, the sweep harness, and the serving plane.
//!
//! The five Table II games cover a tiny, cache-friendly working set.
//! [`SyntheticSpec`] opens the workload axis: triangle budget, texture
//! count/size/kind mix, anisotropy pressure (how much of the budget is
//! spent on grazing-angle surfaces and how level the camera looks),
//! overdraw depth, and an animated multi-frame camera path — all
//! integer-valued and driven by one `TinyRng` seed, so a spec is
//! `Copy + Eq + Hash + Ord`, keys the same caches a [`Game`] does, and
//! round-trips exactly through its canonical label and the PGTR/PGRPC
//! wire encodings.
//!
//! Determinism contract: the same spec, resolution, and frame count
//! produce bit-identical [`SceneTrace`]s on every platform and thread
//! count — geometry, texel data, and cameras are pure functions of the
//! spec (see `docs/WORKLOADS.md`).

use crate::games::{Game, Resolution};
use crate::mesh;
use crate::procedural::{texture_set, TextureKind};
use crate::scene::{DrawCall, SceneTrace};
use pimgfx_raster::Camera;
use pimgfx_types::{ConfigError, TextureId, TinyRng, Vec3};
use std::fmt;

/// Label prefix of a synthetic workload (`syn.…`).
pub const SYNTHETIC_PREFIX: &str = "syn";

/// Fragment-shader ALU ops per pixel for every synthetic scene (the
/// games sweep this axis via their profiles; synthetic workloads pin it
/// so the spec parameters above stay the only degrees of freedom).
pub const SYNTHETIC_SHADER_ALU_OPS: u32 = 96;

/// Largest accepted triangle budget (`1 << 20`).
pub const MAX_TRIANGLES: u32 = 1 << 20;
/// Largest accepted texture count.
pub const MAX_TEXTURES: u32 = 1024;
/// Largest accepted texture edge length, texels.
pub const MAX_TEXTURE_SIZE: u32 = 4096;
/// Largest accepted overdraw depth.
pub const MAX_OVERDRAW: u32 = 64;
/// Largest accepted camera-path period, frames (`1 << 20`, the PGTR
/// camera-count cap).
pub const MAX_PATH_FRAMES: u32 = 1 << 20;

/// A fully parameterized synthetic workload.
///
/// All fields are integers (ratios are per-mille) so the spec derives
/// `Copy`, `Eq`, `Hash`, and `Ord` — it is used directly as a cache
/// key, a report-map key, and a wire payload. The canonical text form
/// (`Display` / [`SyntheticSpec::from_label`]) is
/// `syn.<seed:hex>.<triangles>.<textures>.<texture_size>.<kind_mask:hex>.<grazing_milli>.<overdraw>.<path_frames>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SyntheticSpec {
    /// Seed of every random choice in the build (`TinyRng`).
    pub seed: u64,
    /// Per-frame triangle budget across all layers (approximate: the
    /// builder tessellates to the nearest grid that fits the budget).
    pub triangles: u32,
    /// Distinct textures in the scene.
    pub textures: u32,
    /// Texture edge length, texels (power of two).
    pub texture_size: u32,
    /// Bitmask over [`TextureKind::ALL`] selecting which procedural
    /// kinds participate (bit 0 = `Checker`, … bit 3 = `Stone`).
    pub kind_mask: u32,
    /// Anisotropy pressure, per-mille: the share of the triangle
    /// budget spent on grazing-angle floor/ceiling surfaces, and how
    /// low/level the camera flies (0 = all camera-facing isotropic
    /// content, 1000 = maximally grazing).
    pub grazing_milli: u32,
    /// Overdraw depth: how many stacked copies of the scene geometry
    /// are drawn per frame (1 = no extra overdraw).
    pub overdraw: u32,
    /// Period of the animated camera path, frames: the walkthrough
    /// weaves with this cycle length however many frames are rendered.
    pub path_frames: u32,
}

impl SyntheticSpec {
    /// Checks every parameter against the generator's documented
    /// envelope (the synthetic analogue of `SimConfig::validate`).
    ///
    /// # Errors
    ///
    /// Rejects zero triangles/textures/path frames, a zero or
    /// non-power-of-two texture size, an empty or out-of-range texture
    /// kind mask, out-of-range anisotropy pressure, and out-of-range
    /// overdraw.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |reason: String| Err(ConfigError::new("synthetic workload", reason));
        if self.triangles == 0 || self.triangles > MAX_TRIANGLES {
            return err(format!(
                "triangle budget must be in 1..={MAX_TRIANGLES}, got {}",
                self.triangles
            ));
        }
        if self.textures == 0 || self.textures > MAX_TEXTURES {
            return err(format!(
                "texture count must be in 1..={MAX_TEXTURES}, got {}",
                self.textures
            ));
        }
        if !self.texture_size.is_power_of_two() || self.texture_size > MAX_TEXTURE_SIZE {
            return err(format!(
                "texture size must be a power of two in 1..={MAX_TEXTURE_SIZE}, got {}",
                self.texture_size
            ));
        }
        if self.kind_mask == 0 || self.kind_mask >= (1 << TextureKind::ALL.len()) {
            return err(format!(
                "texture kind mask must be in 0x1..=0x{:x}, got 0x{:x}",
                (1u32 << TextureKind::ALL.len()) - 1,
                self.kind_mask
            ));
        }
        if self.grazing_milli > 1000 {
            return err(format!(
                "grazing pressure is per-mille (0..=1000), got {}",
                self.grazing_milli
            ));
        }
        if self.overdraw == 0 || self.overdraw > MAX_OVERDRAW {
            return err(format!(
                "overdraw depth must be in 1..={MAX_OVERDRAW}, got {}",
                self.overdraw
            ));
        }
        if self.path_frames == 0 || self.path_frames > MAX_PATH_FRAMES {
            return err(format!(
                "camera path period must be in 1..={MAX_PATH_FRAMES} frames, got {}",
                self.path_frames
            ));
        }
        Ok(())
    }

    /// The texture kinds selected by [`SyntheticSpec::kind_mask`], in
    /// [`TextureKind::ALL`] order.
    pub fn kinds(&self) -> Vec<TextureKind> {
        TextureKind::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| self.kind_mask & (1 << i) != 0)
            .map(|(_, k)| k)
            .collect()
    }

    /// Parses the canonical label form (the inverse of `Display`).
    pub fn from_label(label: &str) -> Option<SyntheticSpec> {
        let mut parts = label.split('.');
        if parts.next()? != SYNTHETIC_PREFIX {
            return None;
        }
        let spec = SyntheticSpec {
            seed: u64::from_str_radix(parts.next()?, 16).ok()?,
            triangles: parts.next()?.parse().ok()?,
            textures: parts.next()?.parse().ok()?,
            texture_size: parts.next()?.parse().ok()?,
            kind_mask: u32::from_str_radix(parts.next()?, 16).ok()?,
            grazing_milli: parts.next()?.parse().ok()?,
            overdraw: parts.next()?.parse().ok()?,
            path_frames: parts.next()?.parse().ok()?,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(spec)
    }
}

impl fmt::Display for SyntheticSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{SYNTHETIC_PREFIX}.{:x}.{}.{}.{}.{:x}.{}.{}.{}",
            self.seed,
            self.triangles,
            self.textures,
            self.texture_size,
            self.kind_mask,
            self.grazing_milli,
            self.overdraw,
            self.path_frames
        )
    }
}

/// The identity of a renderable workload: one of the paper's Table II
/// games, or a procedural [`SyntheticSpec`].
///
/// This is the key type of every layer that used to hardcode `Game`:
/// scene/stream cache keys, sweep columns, manifest column labels, and
/// the PGRPC job/matrix specs. `From<Game>` keeps game-only call sites
/// terse (`cache.get(Game::Doom3, res)` still compiles wherever the
/// API takes `impl Into<Workload>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// A Table II game trace.
    Game(Game),
    /// A procedural synthetic workload.
    Synthetic(SyntheticSpec),
}

impl Workload {
    /// Canonical label: the game's short label (`doom3`), or the
    /// spec's canonical `syn.…` form. Labels are unique per workload
    /// and are the routing/report keys throughout the stack.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Parses a canonical label — a game short label or a `syn.…`
    /// spec — back into a workload.
    pub fn from_label(label: &str) -> Option<Workload> {
        if let Some(game) = Game::ALL.into_iter().find(|g| g.label() == label) {
            return Some(Workload::Game(game));
        }
        SyntheticSpec::from_label(label).map(Workload::Synthetic)
    }

    /// The underlying game, when this is a game workload.
    pub fn as_game(&self) -> Option<Game> {
        match self {
            Workload::Game(g) => Some(*g),
            Workload::Synthetic(_) => None,
        }
    }

    /// The underlying spec, when this is a synthetic workload.
    pub fn as_synthetic(&self) -> Option<SyntheticSpec> {
        match self {
            Workload::Game(_) => None,
            Workload::Synthetic(s) => Some(*s),
        }
    }
}

impl From<Game> for Workload {
    fn from(game: Game) -> Self {
        Workload::Game(game)
    }
}

impl From<SyntheticSpec> for Workload {
    fn from(spec: SyntheticSpec) -> Self {
        Workload::Synthetic(spec)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Workload::Game(g) => f.write_str(g.label()),
            Workload::Synthetic(s) => s.fmt(f),
        }
    }
}

/// Builds the walkthrough trace of a synthetic workload: `frames`
/// frames of an animated camera path over a procedurally tessellated
/// corridor, with the triangle budget split between grazing-angle
/// floor/ceiling sheets and camera-facing props per
/// [`SyntheticSpec::grazing_milli`], stacked
/// [`SyntheticSpec::overdraw`] layers deep.
///
/// The build is a pure function of `(spec, resolution, frames)`; see
/// the module docs for the determinism contract.
///
/// # Panics
///
/// Panics if `frames` is zero or the spec fails
/// [`SyntheticSpec::validate`] (servers validate at submission, the
/// same contract `build_scene` has for Table II columns).
pub fn synthesize(spec: &SyntheticSpec, resolution: Resolution, frames: usize) -> SceneTrace {
    assert!(frames > 0, "a trace needs at least one frame");
    let valid = spec.validate();
    assert!(valid.is_ok(), "invalid synthetic spec {spec}: {valid:?}");

    let textures = texture_set(&spec.kinds(), spec.textures, spec.texture_size, spec.seed);
    let tex = |i: u32| TextureId::new(i % spec.textures);

    // Budget split: grazing sheets vs facing props, then across layers.
    let depth = 48.0f32;
    let budget = u64::from(spec.triangles);
    let grazing_budget = budget * u64::from(spec.grazing_milli) / 1000;
    let facing_budget = budget - grazing_budget;
    let layers = u64::from(spec.overdraw);

    // Each layer draws a floor and a ceiling grid of q×q quads
    // (2·q²·2 triangles per layer); pick q to fill the grazing share.
    let per_grid = (grazing_budget / (layers * 4)).max(1);
    let q = ((per_grid as f64).sqrt() as u32).max(1);

    // Facing props are batched one draw call per texture; each
    // `facing_quad` contributes 8 triangles.
    let props = (facing_budget / (layers * 8)).max(1) as u32;

    let mut rng = TinyRng::seed_from_u64(spec.seed ^ 0x5CE7E);
    let mut draws: Vec<DrawCall> = Vec::new();
    for layer in 0..spec.overdraw {
        let lseed = spec.seed ^ (u64::from(layer) << 32);
        // Successive overdraw layers stack slightly above the last so
        // every layer survives the depth test (real overdraw traffic).
        let lift = layer as f32 * 0.01;
        if spec.grazing_milli > 0 {
            draws.push(DrawCall {
                triangles: mesh::floor(lift, 10.0, depth, q, 1.25, 0.05, lseed),
                texture: tex(2 * layer),
            });
            draws.push(DrawCall {
                triangles: mesh::grid(
                    Vec3::new(-5.0, 4.0 - lift, 0.0),
                    Vec3::new(10.0, 0.0, 0.0),
                    Vec3::new(0.0, 0.0, -depth),
                    -Vec3::Y,
                    q,
                    q,
                    1.25,
                    0.05,
                    lseed ^ 1,
                ),
                texture: tex(2 * layer + 1),
            });
        }
        if facing_budget > 0 {
            // One batched draw call per texture keeps the draw count
            // bounded however large the prop budget gets.
            let mut batches: Vec<Vec<[pimgfx_raster::Vertex; 3]>> =
                vec![Vec::new(); spec.textures as usize];
            for p in 0..props {
                let x = rng.next_f32() * 8.0 - 4.0;
                let y = rng.next_f32() * 3.0 + 0.5;
                let z = -(rng.next_f32() * (depth - 6.0) + 4.0) - lift;
                let half = rng.next_f32() * 0.8 + 0.4;
                batches[(p % spec.textures) as usize].extend(mesh::facing_quad(
                    Vec3::new(x, y, z),
                    half,
                    1.5,
                    0.03,
                    lseed ^ (0x100 + u64::from(p)),
                ));
            }
            for (t, triangles) in batches.into_iter().enumerate() {
                if !triangles.is_empty() {
                    draws.push(DrawCall {
                        triangles,
                        texture: tex(t as u32),
                    });
                }
            }
        }
    }

    // Animated camera path, period `path_frames`: the eye weaves
    // sideways and bobs while walking the corridor; grazing pressure
    // flattens the flight (lower eye, more level gaze ⇒ the floor
    // fills the frame at grazing angles).
    let g = spec.grazing_milli as f32 / 1000.0;
    let (w, h) = resolution.dims();
    let aspect = w as f32 / h as f32;
    let cameras = (0..frames)
        .map(|f| {
            let phase = (f % spec.path_frames as usize) as f32 / spec.path_frames as f32
                * std::f32::consts::TAU;
            let eye = Vec3::new(
                phase.sin() * 1.5,
                (1.8 - 1.4 * g) + phase.cos() * 0.1 * (1.0 - g),
                -(f as f32) * 0.6,
            );
            let target = eye + Vec3::new(phase.sin() * 0.2, -0.4 * (1.0 - g) - 0.02, -1.0);
            Camera::look_at(eye, target, Vec3::Y, std::f32::consts::FRAC_PI_3, aspect)
        })
        .collect();

    SceneTrace {
        workload: Workload::Synthetic(*spec),
        resolution,
        textures,
        draws,
        cameras,
        shader_alu_ops: SYNTHETIC_SHADER_ALU_OPS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SyntheticSpec {
        SyntheticSpec {
            seed: 0xC0FFEE,
            triangles: 2000,
            textures: 6,
            texture_size: 64,
            kind_mask: 0xF,
            grazing_milli: 600,
            overdraw: 2,
            path_frames: 4,
        }
    }

    #[test]
    fn valid_spec_passes_validation() {
        spec().validate().expect("reference spec is valid");
    }

    #[test]
    fn validation_rejects_each_bad_parameter() {
        let cases: Vec<(&str, SyntheticSpec)> = vec![
            (
                "triangle",
                SyntheticSpec {
                    triangles: 0,
                    ..spec()
                },
            ),
            (
                "triangle",
                SyntheticSpec {
                    triangles: MAX_TRIANGLES + 1,
                    ..spec()
                },
            ),
            (
                "texture count",
                SyntheticSpec {
                    textures: 0,
                    ..spec()
                },
            ),
            (
                "texture size",
                SyntheticSpec {
                    texture_size: 0,
                    ..spec()
                },
            ),
            (
                "texture size",
                SyntheticSpec {
                    texture_size: 100,
                    ..spec()
                },
            ),
            (
                "kind mask",
                SyntheticSpec {
                    kind_mask: 0,
                    ..spec()
                },
            ),
            (
                "kind mask",
                SyntheticSpec {
                    kind_mask: 0x10,
                    ..spec()
                },
            ),
            (
                "per-mille",
                SyntheticSpec {
                    grazing_milli: 1001,
                    ..spec()
                },
            ),
            (
                "overdraw",
                SyntheticSpec {
                    overdraw: 0,
                    ..spec()
                },
            ),
            (
                "overdraw",
                SyntheticSpec {
                    overdraw: MAX_OVERDRAW + 1,
                    ..spec()
                },
            ),
            (
                "path period",
                SyntheticSpec {
                    path_frames: 0,
                    ..spec()
                },
            ),
        ];
        for (needle, bad) in cases {
            let err = bad.validate().expect_err("must reject").to_string();
            assert!(err.contains(needle), "`{err}` should mention {needle}");
        }
    }

    #[test]
    fn labels_round_trip_exactly() {
        let s = spec();
        let label = s.to_string();
        assert!(label.starts_with("syn."), "{label}");
        assert_eq!(SyntheticSpec::from_label(&label), Some(s));
        assert_eq!(Workload::from_label(&label), Some(Workload::Synthetic(s)));
        assert_eq!(
            Workload::from_label("doom3"),
            Some(Workload::Game(Game::Doom3))
        );
        assert_eq!(Workload::from_label("syn.zz.1"), None);
        assert_eq!(Workload::from_label("nonsense"), None);
        // Trailing garbage is rejected, not ignored.
        assert_eq!(SyntheticSpec::from_label(&format!("{label}.9")), None);
    }

    #[test]
    fn workload_accessors_and_conversions() {
        let w: Workload = Game::Fear.into();
        assert_eq!(w.as_game(), Some(Game::Fear));
        assert_eq!(w.as_synthetic(), None);
        let s: Workload = spec().into();
        assert_eq!(s.as_game(), None);
        assert_eq!(s.as_synthetic(), Some(spec()));
        assert_eq!(w.label(), "fear");
    }

    #[test]
    fn synthesized_scene_is_deterministic_and_within_budget() {
        let a = synthesize(&spec(), Resolution::R320x240, 3);
        let b = synthesize(&spec(), Resolution::R320x240, 3);
        assert_eq!(a.frame_count(), 3);
        assert_eq!(a.textures.len(), 6);
        assert_eq!(a.triangles_per_frame(), b.triangles_per_frame());
        assert_eq!(
            a.draws[0].triangles[0][0].position,
            b.draws[0].triangles[0][0].position
        );
        assert_eq!(
            a.textures[0].level(0).texel(3, 3),
            b.textures[0].level(0).texel(3, 3)
        );
        assert!(a.triangles_per_frame() > 0);
        // The tessellation never overshoots the budget by more than the
        // rounding of one grid row plus one prop batch.
        assert!(
            (a.triangles_per_frame() as u64) <= u64::from(spec().triangles) * 2,
            "budget {} produced {} triangles",
            spec().triangles,
            a.triangles_per_frame()
        );
        for d in &a.draws {
            assert!(d.texture.index() < a.textures.len());
        }
    }

    #[test]
    fn grazing_pressure_lowers_the_camera() {
        let level = synthesize(
            &SyntheticSpec {
                grazing_milli: 1000,
                ..spec()
            },
            Resolution::R320x240,
            1,
        );
        let steep = synthesize(
            &SyntheticSpec {
                grazing_milli: 0,
                ..spec()
            },
            Resolution::R320x240,
            1,
        );
        assert!(
            level.cameras[0].eye().y < steep.cameras[0].eye().y,
            "more grazing pressure must fly lower"
        );
    }

    #[test]
    fn kind_mask_selects_texture_kinds() {
        let only_noise = SyntheticSpec {
            kind_mask: 0b0100,
            ..spec()
        };
        assert_eq!(only_noise.kinds(), vec![TextureKind::ALL[2]]);
        assert_eq!(spec().kinds().len(), 4);
    }

    #[test]
    #[should_panic(expected = "invalid synthetic spec")]
    fn synthesize_rejects_invalid_specs() {
        let _ = synthesize(
            &SyntheticSpec {
                overdraw: 0,
                ..spec()
            },
            Resolution::R320x240,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn synthesize_rejects_zero_frames() {
        let _ = synthesize(&spec(), Resolution::R320x240, 0);
    }
}
