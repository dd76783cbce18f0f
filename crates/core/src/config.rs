//! Simulator configuration (the paper's Table I) with a builder.
//!
//! [`SimConfig`] gathers every knob the paper fixes in Table I — shader
//! clusters, texture units, GDDR5 vs. HMC memory, PIM filtering units —
//! plus the [`Design`] point under evaluation, and validates the whole
//! bundle before a [`Simulator`](crate::Simulator) is built (invalid
//! combinations are [`ConfigError`]s, never panics). The builder starts
//! from the published Table I values, so a plain
//! `SimConfig::builder().build()` reproduces the paper's baseline GPU;
//! individual setters express the ablations (§VII) and the A-TFIM
//! anisotropic threshold sweep (Fig. 14–16).

use crate::design::Design;
use pimgfx_mem::{Gddr5Config, HmcConfig};
use pimgfx_pim::{AtfimConfig, MtuConfig};
use pimgfx_shader::ShaderConfig;
use pimgfx_texture::{CacheConfig, FilterMode, SamplerConfig};
use pimgfx_types::{ConfigError, Radians, Result};

/// GPU-side texture-unit configuration (Table I: 16 units, 4 address
/// ALUs and 8 filtering ALUs each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextureUnitConfig {
    /// Texture units (one per shader cluster).
    pub units: usize,
    /// Address-generation ALUs per unit.
    pub addr_alus: u32,
    /// Filtering ALUs per unit.
    pub filter_alus: u32,
    /// Texel addresses generated per cycle (the 4 address ALUs each
    /// produce an address pair on even/odd phases: 4 × 1.5 effective).
    pub addr_texels_per_cycle: u32,
    /// Texels filtered per cycle (the 8 filtering ALUs are dual-issue
    /// multiply-add datapaths: 8 × 2).
    pub filter_texels_per_cycle: u32,
    /// Pipeline latency, cycles.
    pub pipeline_latency: u64,
}

impl Default for TextureUnitConfig {
    fn default() -> Self {
        Self {
            units: 16,
            addr_alus: 4,
            filter_alus: 8,
            addr_texels_per_cycle: 6,
            filter_texels_per_cycle: 16,
            pipeline_latency: 8,
        }
    }
}

/// The full simulator configuration.
///
/// Defaults reproduce the paper's Table I: a 16-cluster, 1 GHz GPU with
/// 16 KB L1 / 128 KB L2 texture caches, 16× anisotropic filtering, a
/// 0.01π camera-angle threshold, GDDR5 at 128 GB/s or an HMC at
/// 320 GB/s external / 512 GB/s internal.
///
/// # Examples
///
/// ```
/// use pimgfx::{Design, SimConfig};
///
/// let config = SimConfig::builder()
///     .design(Design::ATfim)
///     .angle_threshold_pi_fraction(0.05)
///     .build()?;
/// assert_eq!(config.design, Design::ATfim);
/// # Ok::<(), pimgfx_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The architecture variant.
    pub design: Design,
    /// Shader-cluster configuration.
    pub shader: ShaderConfig,
    /// GPU texture units.
    pub texture_units: TextureUnitConfig,
    /// Per-cluster L1 texture cache geometry.
    pub l1_cache: CacheConfig,
    /// Shared L2 texture cache geometry.
    pub l2_cache: CacheConfig,
    /// Sampler settings (filter mode, anisotropy cap).
    pub sampler: SamplerConfig,
    /// Camera-angle threshold for A-TFIM parent-texel reuse.
    pub angle_threshold: Radians,
    /// GDDR5 parameters (used by `Design::Baseline`).
    pub gddr5: Gddr5Config,
    /// HMC parameters (used by the PIM designs).
    pub hmc: HmcConfig,
    /// S-TFIM MTU parameters.
    pub mtu: MtuConfig,
    /// Number of S-TFIM MTUs. The paper's default gives each cluster a
    /// private MTU to match the baseline's compute capacity; fewer MTUs
    /// shared between clusters trade logic-layer area for contention
    /// (§IV).
    pub mtus: usize,
    /// Number of HMC cubes attached to the GPU (§V-E: textures are
    /// mapped whole to a single cube so parent and child texels share a
    /// cube). 1 for every experiment in the paper's evaluation.
    pub hmc_cubes: usize,
    /// A-TFIM logic-layer parameters.
    pub atfim: AtfimConfig,
    /// Screen tile edge, pixels (Table I: 16×16).
    pub tile_px: u32,
    /// Offload-package offset compression (A-TFIM ablation knob).
    pub compress_offload: bool,
    /// Block texture compression (BC1-style, 4:1). Orthogonal to every
    /// design point (§VIII of the paper): textures are transcoded before
    /// rendering (lossy, visible in quality metrics) and every texel
    /// line shrinks 4× on the wire and in DRAM.
    pub compressed_textures: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            design: Design::Baseline,
            shader: ShaderConfig::default(),
            texture_units: TextureUnitConfig::default(),
            l1_cache: CacheConfig::l1_default(),
            l2_cache: CacheConfig::l2_default(),
            sampler: SamplerConfig::default(),
            angle_threshold: Radians::from_pi_fraction(0.01),
            gddr5: Gddr5Config::default(),
            hmc: HmcConfig::default(),
            mtu: MtuConfig::default(),
            mtus: 16,
            hmc_cubes: 1,
            atfim: AtfimConfig::default(),
            tile_px: 16,
            compress_offload: true,
            compressed_textures: false,
        }
    }
}

impl SimConfig {
    /// Starts a builder with Table I defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::default(),
        }
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a structural parameter is invalid
    /// (zero units/tile, bad cache geometry, or inconsistent memory
    /// parameters).
    pub fn validate(&self) -> Result<()> {
        if self.tile_px == 0 {
            return Err(ConfigError::new("simulator", "tile size must be nonzero"));
        }
        if self.texture_units.units == 0 {
            return Err(ConfigError::new(
                "simulator",
                "need at least one texture unit",
            ));
        }
        if self.texture_units.units != self.shader.clusters {
            return Err(ConfigError::new(
                "simulator",
                "texture units must match shader clusters (one per cluster)",
            ));
        }
        self.l1_cache.validate()?;
        self.l2_cache.validate()?;
        self.gddr5.validate()?;
        self.hmc.validate()?;
        if self.mtus == 0 {
            return Err(ConfigError::new("simulator", "need at least one MTU"));
        }
        if self.hmc_cubes == 0 {
            return Err(ConfigError::new("simulator", "need at least one HMC cube"));
        }
        if self.sampler.max_aniso == 0 {
            return Err(ConfigError::new("simulator", "max anisotropy must be >= 1"));
        }
        let threshold = self.angle_threshold.as_f32();
        if !threshold.is_finite() {
            return Err(ConfigError::new(
                "simulator",
                "angle threshold must be finite",
            ));
        }
        if threshold < 0.0 {
            return Err(ConfigError::new(
                "simulator",
                "angle threshold must be >= 0",
            ));
        }
        // The paper sweeps 0.005π–0.1π (Figs. 14–16); π itself is the
        // A-TFIM-no sentinel set by `no_recalculation()`. Anything above
        // π cannot be a camera-angle difference and indicates a mixed-up
        // unit at the call site.
        if threshold > std::f32::consts::PI {
            return Err(ConfigError::new(
                "simulator",
                "angle threshold above pi is meaningless; use no_recalculation() for the A-TFIM-no variant",
            ));
        }
        if self.mtus > self.shader.clusters {
            return Err(ConfigError::new(
                "simulator",
                "more MTUs than shader clusters: S-TFIM gives each cluster at most one private MTU (§IV)",
            ));
        }
        if self.design == Design::Baseline && self.hmc_cubes != 1 {
            return Err(ConfigError::new(
                "simulator",
                "hmc_cubes is an HMC knob; the GDDR5 baseline must leave it at 1",
            ));
        }
        Ok(())
    }

    /// The lane count a replay of this configuration runs with when
    /// asked for `lanes`: clamped to `1..=clusters`.
    pub fn replay_lanes(&self, lanes: usize) -> usize {
        crate::lanepre::lane_workers(lanes, self.shader.clusters)
    }

    /// Every field a replay's phase 1 and functional step read — what
    /// decides colors, cache outcomes and A-TFIM parent reuse. Two
    /// configurations with equal keys differ only in timing, so they can
    /// replay as one group
    /// ([`Simulator::render_replay_group`](crate::Simulator::render_replay_group)):
    /// one phase 1 and one functional step feed both timing models.
    ///
    /// The key names the design family (Baseline, B-PIM and S-TFIM run
    /// the conventional sampler; A-TFIM its reordered one), the sampler,
    /// both cache geometries, the tile size, the cluster and texture-unit
    /// counts (which pick a tile's L1), the cube count (which places the
    /// textures) and block compression (which transcodes them), and for
    /// A-TFIM the angle threshold. Every other field is timing.
    pub fn replay_key(&self) -> ReplayKey {
        let atfim = self.design == Design::ATfim;
        ReplayKey {
            atfim,
            sampler: SamplerConfig {
                reordered: atfim,
                ..self.sampler
            },
            l1_cache: self.l1_cache,
            l2_cache: self.l2_cache,
            tile_px: self.tile_px,
            clusters: self.shader.clusters,
            units: self.texture_units.units,
            hmc_cubes: self.hmc_cubes,
            compressed_textures: self.compressed_textures,
            angle_threshold: atfim.then(|| self.angle_threshold.as_f32().to_bits()),
        }
    }
}

/// The functional identity of a [`SimConfig`]: see
/// [`SimConfig::replay_key`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayKey {
    atfim: bool,
    sampler: SamplerConfig,
    l1_cache: CacheConfig,
    l2_cache: CacheConfig,
    tile_px: u32,
    clusters: usize,
    units: usize,
    hmc_cubes: usize,
    compressed_textures: bool,
    /// The threshold's bits (A-TFIM only).
    angle_threshold: Option<u32>,
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the design point.
    pub fn design(mut self, design: Design) -> Self {
        self.config.design = design;
        self
    }

    /// Sets the A-TFIM camera-angle threshold directly.
    pub fn angle_threshold(mut self, threshold: Radians) -> Self {
        self.config.angle_threshold = threshold;
        self
    }

    /// Sets the threshold as a fraction of π (the paper's notation:
    /// 0.005, 0.01, 0.05, 0.1).
    pub fn angle_threshold_pi_fraction(mut self, fraction: f32) -> Self {
        self.config.angle_threshold = Radians::from_pi_fraction(fraction);
        self
    }

    /// Disables A-TFIM parent recalculation entirely (the
    /// `A-TFIM-no` configuration of Figs. 14–16): any cached parent is
    /// reused regardless of camera angle.
    pub fn no_recalculation(mut self) -> Self {
        self.config.angle_threshold = Radians::PI;
        self
    }

    /// Caps the anisotropy ratio (1 disables anisotropic filtering — the
    /// Fig. 4 experiment).
    pub fn max_aniso(mut self, max_aniso: u32) -> Self {
        self.config.sampler.max_aniso = max_aniso;
        self.config.sampler.filter = if max_aniso <= 1 {
            FilterMode::Trilinear
        } else {
            FilterMode::Anisotropic
        };
        self
    }

    /// Overrides the shader configuration.
    pub fn shader(mut self, shader: ShaderConfig) -> Self {
        self.config.shader = shader;
        self
    }

    /// Overrides the HMC configuration.
    pub fn hmc(mut self, hmc: HmcConfig) -> Self {
        self.config.hmc = hmc;
        self
    }

    /// Overrides the GDDR5 configuration.
    pub fn gddr5(mut self, gddr5: Gddr5Config) -> Self {
        self.config.gddr5 = gddr5;
        self
    }

    /// Overrides the A-TFIM logic-layer configuration.
    pub fn atfim(mut self, atfim: AtfimConfig) -> Self {
        self.config.atfim = atfim;
        self
    }

    /// Toggles A-TFIM child-texel consolidation (ablation).
    pub fn consolidation(mut self, enabled: bool) -> Self {
        self.config.atfim.consolidate = enabled;
        self
    }

    /// Toggles offload-package offset compression (ablation).
    pub fn offload_compression(mut self, enabled: bool) -> Self {
        self.config.compress_offload = enabled;
        self
    }

    /// Sets the number of S-TFIM MTUs (shared-MTU ablation, §IV).
    pub fn mtus(mut self, mtus: usize) -> Self {
        self.config.mtus = mtus;
        self
    }

    /// Sets the number of HMC cubes (§V-E multi-cube configuration).
    pub fn hmc_cubes(mut self, cubes: usize) -> Self {
        self.config.hmc_cubes = cubes;
        self
    }

    /// Enables BC1-style block texture compression (orthogonal to the
    /// PIM designs; §VIII).
    pub fn compressed_textures(mut self, enabled: bool) -> Self {
        self.config.compressed_textures = enabled;
        self
    }

    /// Overrides both texture-cache geometries.
    pub fn caches(mut self, l1: CacheConfig, l2: CacheConfig) -> Self {
        self.config.l1_cache = l1;
        self.config.l2_cache = l2;
        self
    }

    /// Finishes the builder.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the assembled configuration fails
    /// [`SimConfig::validate`].
    pub fn build(self) -> Result<SimConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Valid variations of `base` in every timing-only field: each keeps
    /// [`SimConfig::replay_key`]. Shared with the lane-equivalence suite,
    /// which replays them as one group.
    pub(crate) fn timing_variations(base: &SimConfig) -> Vec<SimConfig> {
        let vary = |f: &dyn Fn(&mut SimConfig)| {
            let mut c = base.clone();
            f(&mut c);
            c.validate().expect("a valid variation");
            c
        };
        let mut out = vec![
            vary(&|c| c.gddr5.bandwidth_gb_s *= 0.5),
            vary(&|c| c.gddr5.channels = 4),
            vary(&|c| c.hmc.external_gb_s *= 0.5),
            vary(&|c| c.hmc.internal_gb_s *= 2.0),
            vary(&|c| c.hmc.vaults = 8),
            vary(&|c| c.mtu.filter_alus = 2),
            vary(&|c| c.mtus = 4),
            vary(&|c| c.atfim.consolidate = false),
            vary(&|c| c.atfim.parent_buffer_entries = 16),
            vary(&|c| c.atfim.stage_latency += 7),
            vary(&|c| c.compress_offload = !c.compress_offload),
            vary(&|c| c.shader.shaders_per_cluster = 4),
            vary(&|c| c.shader.pipeline_latency += 5),
            vary(&|c| c.texture_units.filter_alus = 2),
            vary(&|c| c.texture_units.addr_texels_per_cycle = 2),
            vary(&|c| c.texture_units.pipeline_latency += 3),
            // The sampler's order is the design's, whatever it says.
            vary(&|c| c.sampler.reordered = !c.sampler.reordered),
        ];
        if base.design == Design::ATfim {
            return out;
        }
        // Conventional designs: the threshold is unread, and Baseline,
        // B-PIM and S-TFIM share one functional step.
        out.push(vary(&|c| {
            c.angle_threshold = Radians::from_pi_fraction(0.1)
        }));
        for d in [Design::Baseline, Design::BPim, Design::STfim] {
            out.push(vary(&|c| c.design = d));
        }
        out
    }

    #[test]
    fn replay_key_names_every_functional_field() {
        for design in Design::ALL {
            let base = SimConfig::builder().design(design).build().expect("valid");
            let key = base.replay_key();
            for c in timing_variations(&base) {
                assert_eq!(c.replay_key(), key, "{design}: timing-only {c:?}");
            }
            let vary = |f: &dyn Fn(&mut SimConfig)| {
                let mut c = base.clone();
                f(&mut c);
                c
            };
            let mut functional = vec![
                vary(&|c| c.sampler.max_aniso = 4),
                vary(&|c| c.sampler.filter = FilterMode::Trilinear),
                vary(&|c| c.l1_cache.size_bytes *= 2),
                vary(&|c| c.l1_cache.ways = 8),
                vary(&|c| c.l2_cache.size_bytes *= 2),
                vary(&|c| c.tile_px = 8),
                vary(&|c| {
                    c.shader.clusters = 8;
                    c.texture_units.units = 8;
                    c.mtus = 8;
                }),
                vary(&|c| c.compressed_textures = true),
                vary(&|c| {
                    c.design = if design == Design::ATfim {
                        Design::BPim
                    } else {
                        Design::ATfim
                    };
                    c.hmc_cubes = base.hmc_cubes;
                }),
            ];
            if design != Design::Baseline {
                functional.push(vary(&|c| c.hmc_cubes = 2));
            }
            if design == Design::ATfim {
                functional.push(vary(&|c| {
                    c.angle_threshold = Radians::from_pi_fraction(0.05)
                }));
                functional.push(vary(&|c| c.angle_threshold = Radians::PI));
            }
            for c in functional {
                assert_ne!(c.replay_key(), key, "{design}: functional {c:?}");
            }
        }
    }

    #[test]
    fn default_is_table_one() {
        let c = SimConfig::default();
        assert_eq!(c.shader.clusters, 16);
        assert_eq!(c.texture_units.units, 16);
        assert_eq!(c.l1_cache.size_bytes, 16 * 1024);
        assert_eq!(c.l2_cache.size_bytes, 128 * 1024);
        assert_eq!(c.sampler.max_aniso, 16);
        assert_eq!(c.tile_px, 16);
        assert!((c.angle_threshold.to_degrees() - 1.8).abs() < 0.01);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_sets_design_and_threshold() {
        let c = SimConfig::builder()
            .design(Design::ATfim)
            .angle_threshold_pi_fraction(0.05)
            .build()
            .expect("valid");
        assert_eq!(c.design, Design::ATfim);
        assert!((c.angle_threshold.to_degrees() - 9.0).abs() < 0.01);
    }

    #[test]
    fn max_aniso_one_switches_to_trilinear() {
        let c = SimConfig::builder().max_aniso(1).build().expect("valid");
        assert_eq!(c.sampler.filter, FilterMode::Trilinear);
        let c = SimConfig::builder().max_aniso(8).build().expect("valid");
        assert_eq!(c.sampler.filter, FilterMode::Anisotropic);
    }

    #[test]
    fn no_recalculation_maxes_threshold() {
        let c = SimConfig::builder()
            .no_recalculation()
            .build()
            .expect("valid");
        assert_eq!(c.angle_threshold, Radians::PI);
    }

    #[test]
    fn mismatched_units_and_clusters_rejected() {
        let c = SimConfig {
            texture_units: TextureUnitConfig {
                units: 8,
                ..TextureUnitConfig::default()
            },
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_tile_rejected() {
        let c = SimConfig {
            tile_px: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn mtu_and_cube_knobs() {
        let c = SimConfig::builder()
            .design(Design::STfim)
            .mtus(4)
            .hmc_cubes(2)
            .build()
            .expect("valid");
        assert_eq!(c.mtus, 4);
        assert_eq!(c.hmc_cubes, 2);
        assert!(SimConfig::builder().mtus(0).build().is_err());
        assert!(SimConfig::builder().hmc_cubes(0).build().is_err());
    }

    #[test]
    fn angle_threshold_paper_sweep_accepted_bounds_rejected() {
        // Every point of the paper's Figs. 14–16 sweep validates, and so
        // does the no-recalculation sentinel (exactly π).
        for f in [0.005f32, 0.01, 0.05, 0.1] {
            assert!(SimConfig::builder()
                .design(Design::ATfim)
                .angle_threshold_pi_fraction(f)
                .build()
                .is_ok());
        }
        assert!(SimConfig::builder().no_recalculation().build().is_ok());

        // Out-of-range and non-finite thresholds return Err, not panic.
        assert!(SimConfig::builder()
            .angle_threshold_pi_fraction(-0.01)
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .angle_threshold_pi_fraction(1.01)
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .angle_threshold_pi_fraction(f32::NAN)
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .angle_threshold_pi_fraction(f32::INFINITY)
            .build()
            .is_err());
    }

    #[test]
    fn invalid_design_memory_combos_rejected() {
        // The GDDR5 baseline has no cubes to configure.
        assert!(SimConfig::builder()
            .design(Design::Baseline)
            .hmc_cubes(2)
            .build()
            .is_err());
        // More MTUs than clusters is structurally meaningless (§IV).
        assert!(SimConfig::builder()
            .design(Design::STfim)
            .mtus(32)
            .build()
            .is_err());
    }

    #[test]
    fn ablation_knobs() {
        let c = SimConfig::builder()
            .consolidation(false)
            .offload_compression(false)
            .build()
            .expect("valid");
        assert!(!c.atfim.consolidate);
        assert!(!c.compress_offload);
    }
}
