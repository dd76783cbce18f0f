//! Streamed replay equivalence: for every design, replaying a cached
//! fragment stream through phase-1 chunk records must produce a
//! [`RenderReport`] equal to the serial per-quad oracle — same cycles,
//! same stats, same traffic, same pixels — at any lane count, including
//! one lane (which runs the same chunk code on the calling thread). The
//! two-phase split is byte-identical by construction; this suite is the
//! pin that keeps it that way.
//!
//! The oracle is test-only code, so this suite lives inside the crate.
//! The 1920×1080 case runs in release builds only:
//! `cargo test --release -p pimgfx --lib lane_equivalence`.
//!
//! The module is empty outside `cargo test`.

#[cfg(test)]
mod tests {
    use crate::{Design, FragmentStream, RenderReport, SimConfig, Simulator};
    use pimgfx_workloads::{build_workload, Game, Resolution, SyntheticSpec, Workload};
    use std::sync::Arc;

    /// Lane counts every case replays at: one lane, a helper per core on
    /// small hosts, an odd count, and more helpers than clusters (clamped).
    const LANES: [usize; 5] = [1, 2, 3, 4, 16];

    /// The synthetic column CI exercises (same spec as the workflow's
    /// `pimgfx-gen` invocation).
    fn ci_synthetic() -> Workload {
        Workload::Synthetic(SyntheticSpec {
            seed: 0xc0ffee,
            triangles: 400,
            textures: 2,
            texture_size: 32,
            kind_mask: 0x3,
            grazing_milli: 500,
            overdraw: 1,
            path_frames: 4,
        })
    }

    /// The A-TFIM configurations the figure sweeps replay, beside the
    /// default one.
    fn atfim_variants() -> Vec<(&'static str, SimConfig)> {
        let atfim = || SimConfig::builder().design(Design::ATfim);
        vec![
            ("no-recalculation", atfim().no_recalculation()),
            ("threshold 0.1pi", atfim().angle_threshold_pi_fraction(0.1)),
            ("no consolidation", atfim().consolidation(false)),
            ("no offload compression", atfim().offload_compression(false)),
        ]
        .into_iter()
        .map(|(name, b)| (name, b.build().expect("valid")))
        .collect()
    }

    fn assert_same(oracle: &RenderReport, got: &RenderReport, label: &str) {
        // Headline fields first for a readable failure, then the full
        // report (timing, stats, traffic, energy, trace, and every pixel of
        // the frame image).
        assert_eq!(oracle.total_cycles, got.total_cycles, "cycles: {label}");
        assert_eq!(oracle.texture, got.texture, "texture stats: {label}");
        assert_eq!(oracle.traffic, got.traffic, "traffic: {label}");
        assert!(oracle == got, "full report diverged: {label}");
    }

    fn assert_lane_equivalence(stream: &FragmentStream, config: &SimConfig, label: &str) {
        let oracle = Simulator::new(config.clone())
            .expect("sim")
            .render_replay_oracle(stream)
            .expect("oracle replay");
        oracle.audit().expect("oracle audit");
        for lanes in LANES {
            let got = Simulator::new(config.clone())
                .expect("sim")
                .render_replay_lanes(stream, lanes)
                .expect("streamed replay");
            got.audit().expect("streamed audit");
            assert_same(&oracle, &got, &format!("{label} lanes={lanes}"));
        }
    }

    fn stream_of(workload: Workload, resolution: Resolution) -> FragmentStream {
        let scene = Arc::new(build_workload(workload, resolution, 1));
        FragmentStream::build(scene, SimConfig::default().tile_px).expect("stream")
    }

    fn all_designs(workload: Workload, resolution: Resolution) {
        let stream = stream_of(workload, resolution);
        for design in Design::ALL {
            let config = SimConfig::builder().design(design).build().expect("valid");
            assert_lane_equivalence(&stream, &config, &format!("{workload:?} {design}"));
        }
    }

    #[test]
    fn doom3_all_designs_lane_equivalent() {
        all_designs(Workload::Game(Game::Doom3), Resolution::R320x240);
    }

    #[test]
    fn wolfenstein_all_designs_lane_equivalent() {
        all_designs(Workload::Game(Game::Wolfenstein), Resolution::R640x480);
    }

    #[test]
    fn synthetic_all_designs_lane_equivalent() {
        all_designs(ci_synthetic(), Resolution::R320x240);
    }

    #[test]
    fn atfim_sweep_variants_lane_equivalent() {
        // The grazing synthetic column: the most recomputes per fragment.
        let stream = stream_of(ci_synthetic(), Resolution::R320x240);
        for (name, config) in atfim_variants() {
            assert_lane_equivalence(&stream, &config, &format!("a-tfim {name}"));
        }
    }

    #[test]
    fn compressed_textures_and_cubes_lane_equivalent() {
        // Block compression transcodes the sampled textures, so phase 1
        // must see the transcoded texels; with two cubes, A-TFIM records
        // carry line addresses from the multi-cube layout.
        // Transcoding dominates these replays in debug builds, so each
        // design's case is the one that exercises it most.
        let stream = stream_of(Workload::Game(Game::Doom3), Resolution::R320x240);
        for (design, compressed, cubes) in [
            (Design::BPim, true, 1),
            (Design::STfim, false, 2),
            (Design::ATfim, true, 2),
        ] {
            let config = SimConfig::builder()
                .design(design)
                .compressed_textures(compressed)
                .hmc_cubes(cubes)
                .build()
                .expect("valid");
            let label = format!("{design} compressed={compressed} cubes={cubes}");
            assert_lane_equivalence(&stream, &config, &label);
        }
    }

    #[test]
    fn atfim_1080p_synthetic_lane_equivalent() {
        // A full 1920x1080 frame: hundreds of chunks, so helpers run far
        // ahead of the walk and recycle their buffers. Too slow for a
        // debug build; the release test run covers it.
        if cfg!(debug_assertions) {
            return;
        }
        let workload = Workload::Synthetic(SyntheticSpec {
            seed: 0xC01D_0000,
            triangles: 2000,
            textures: 6,
            texture_size: 64,
            kind_mask: 0xF,
            grazing_milli: 1000,
            overdraw: 1,
            path_frames: 8,
        });
        let stream = stream_of(workload, Resolution::R1920x1080);
        let config = SimConfig::builder()
            .design(Design::ATfim)
            .build()
            .expect("valid");
        assert_lane_equivalence(&stream, &config, "1080p a-tfim");
    }

    #[test]
    fn lane_count_above_cluster_count_clamps() {
        let config = SimConfig::builder()
            .design(Design::ATfim)
            .build()
            .expect("valid");
        let sim = Simulator::new(config).expect("sim");
        assert_eq!(sim.replay_lanes(1024), sim.config().shader.clusters);
        assert_eq!(sim.replay_lanes(2), 2, "A-TFIM replays on lanes too");
        assert_eq!(sim.replay_lanes(0), 1);
    }
}
