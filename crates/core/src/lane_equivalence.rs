//! Streamed replay equivalence: for every design, replaying a cached
//! fragment stream through phase-1 chunk records must produce a
//! [`RenderReport`] equal to the serial per-quad oracle — same cycles,
//! same stats, same traffic, same pixels — at any lane count, including
//! one lane (which runs the same chunk code on the calling thread). The
//! two-phase split is byte-identical by construction; this suite is the
//! pin that keeps it that way.
//!
//! Replay groups are pinned the same way: every member of a group
//! replayed through [`Simulator::render_replay_group`] must equal its
//! solo replay and the serial oracle.
//!
//! The oracle is test-only code, so this suite lives inside the crate.
//! The 1920×1080 case and the game-column groups run in release builds
//! only: `cargo test --release -p pimgfx --lib lane_equivalence`.
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

    /// The configurations a `repro` sweep replays on one column: the
    /// four designs, anisotropy off, and the A-TFIM threshold sweep and
    /// ablations.
    fn sweep_configs() -> Vec<(&'static str, SimConfig)> {
        let design = |d: Design| SimConfig::builder().design(d);
        let mut configs = vec![
            ("baseline", design(Design::Baseline)),
            ("b-pim", design(Design::BPim)),
            ("s-tfim", design(Design::STfim)),
            ("a-tfim", design(Design::ATfim)),
            ("aniso-off", design(Design::Baseline).max_aniso(1)),
            (
                "a-tfim@0.005pi",
                design(Design::ATfim).angle_threshold_pi_fraction(0.005),
            ),
            (
                "a-tfim@0.01pi",
                design(Design::ATfim).angle_threshold_pi_fraction(0.01),
            ),
            (
                "a-tfim@0.05pi",
                design(Design::ATfim).angle_threshold_pi_fraction(0.05),
            ),
        ]
        .into_iter()
        .map(|(name, b)| (name, b.build().expect("valid")))
        .collect::<Vec<_>>();
        configs.extend(atfim_variants());
        configs
    }

    /// Splits `configs` by replay key, first occurrence first.
    fn by_key(configs: Vec<(&'static str, SimConfig)>) -> Vec<Vec<(&'static str, SimConfig)>> {
        let mut groups: Vec<Vec<(&'static str, SimConfig)>> = Vec::new();
        for (name, c) in configs {
            match groups
                .iter_mut()
                .find(|g| g[0].1.replay_key() == c.replay_key())
            {
                Some(g) => g.push((name, c)),
                None => groups.push(vec![(name, c)]),
            }
        }
        groups
    }

    /// Replays each group at several lane counts and checks every member
    /// against its solo replays and the serial oracle.
    fn assert_groups_match(
        stream: &FragmentStream,
        groups: &[Vec<(&str, SimConfig)>],
        label: &str,
    ) {
        for group in groups {
            let configs: Vec<SimConfig> = group.iter().map(|(_, c)| c.clone()).collect();
            let oracles: Vec<RenderReport> = configs
                .iter()
                .map(|c| {
                    let oracle = Simulator::new(c.clone())
                        .expect("sim")
                        .render_replay_oracle(stream)
                        .expect("oracle replay");
                    for lanes in [1, 2, 3] {
                        let solo = Simulator::new(c.clone())
                            .expect("sim")
                            .render_replay_lanes(stream, lanes)
                            .expect("solo replay");
                        assert_same(&oracle, &solo, &format!("{label} solo lanes={lanes}"));
                    }
                    oracle
                })
                .collect();
            for lanes in [1, 2, 3] {
                let got = Simulator::render_replay_group(&configs, stream, lanes).expect("group");
                assert_eq!(got.len(), configs.len());
                for (((name, _), oracle), report) in group.iter().zip(&oracles).zip(&got) {
                    report.audit().expect("group member audit");
                    let names: Vec<&str> = group.iter().map(|(n, _)| *n).collect();
                    assert_same(
                        oracle,
                        report,
                        &format!("{label} {name} in {names:?} lanes={lanes}"),
                    );
                }
            }
        }
    }

    #[test]
    fn group_replay_matches_solo_replays() {
        let groups = by_key(sweep_configs());
        // The conventional designs share one key, as do every A-TFIM
        // ablation and the default threshold; aniso-off and the other
        // thresholds stand alone.
        let names: Vec<Vec<&str>> = groups
            .iter()
            .map(|g| g.iter().map(|(n, _)| *n).collect())
            .collect();
        assert_eq!(names[0], ["baseline", "b-pim", "s-tfim"]);
        assert_eq!(
            names[1],
            [
                "a-tfim",
                "a-tfim@0.01pi",
                "no consolidation",
                "no offload compression"
            ]
        );
        assert_eq!(names.len(), 7, "{names:?}");

        let stream = stream_of(ci_synthetic(), Resolution::R320x240);
        assert_groups_match(&stream, &groups, "synthetic");
        // The game columns and the compressed and multi-cube groups are
        // too slow for a debug build; the release test run covers them.
        if cfg!(debug_assertions) {
            return;
        }
        for (game, resolution) in [
            (Game::Doom3, Resolution::R320x240),
            (Game::Wolfenstein, Resolution::R640x480),
        ] {
            let stream = stream_of(Workload::Game(game), resolution);
            assert_groups_match(&stream, &groups, &format!("{game:?}"));
        }

        // Block compression transcodes what the group samples; two
        // cubes move the layouts (the GDDR5 baseline has one cube).
        let stream = stream_of(Workload::Game(Game::Doom3), Resolution::R320x240);
        let config = |d: Design, compressed: bool, cubes: usize| {
            SimConfig::builder()
                .design(d)
                .compressed_textures(compressed)
                .hmc_cubes(cubes)
        };
        let groups: Vec<Vec<(&str, SimConfig)>> = vec![
            vec![
                ("b-pim bc", config(Design::BPim, true, 1)),
                ("s-tfim bc", config(Design::STfim, true, 1)),
            ],
            vec![
                ("b-pim 2 cubes", config(Design::BPim, false, 2)),
                ("s-tfim 2 cubes", config(Design::STfim, false, 2)),
            ],
            vec![
                ("a-tfim bc 2 cubes", config(Design::ATfim, true, 2)),
                (
                    "a-tfim-noconsol bc 2 cubes",
                    config(Design::ATfim, true, 2).consolidation(false),
                ),
            ],
        ]
        .into_iter()
        .map(|g| {
            g.into_iter()
                .map(|(n, b)| (n, b.build().expect("valid")))
                .collect()
        })
        .collect();
        assert_groups_match(&stream, &groups, "doom3 compressed/cubes");
    }

    /// A group whose members' keys differ is refused, and an empty one
    /// too; a repeated configuration replays once and gets equal
    /// reports.
    #[test]
    fn group_replay_checks_its_members() {
        let stream = stream_of(ci_synthetic(), Resolution::R320x240);
        let design = |d: Design| SimConfig::builder().design(d).build().expect("valid");
        assert!(Simulator::render_replay_group(&[], &stream, 1).is_err());
        assert!(Simulator::render_replay_group(
            &[design(Design::Baseline), design(Design::ATfim)],
            &stream,
            1
        )
        .is_err());
        let twins = [design(Design::STfim), design(Design::STfim)];
        let got = Simulator::render_replay_group(&twins, &stream, 2).expect("group");
        let solo = Simulator::new(design(Design::STfim))
            .expect("sim")
            .render_replay(&stream)
            .expect("solo");
        assert_same(&solo, &got[0], "first twin");
        assert_same(&solo, &got[1], "second twin");
    }

    /// Every timing-only field can differ inside a group: the key stays,
    /// and each member still replays exactly as it does alone. (Which
    /// fields change the key is pinned in `config::tests`.)
    #[test]
    fn timing_only_fields_share_a_replay() {
        let stream = stream_of(ci_synthetic(), Resolution::R320x240);
        for design in [Design::BPim, Design::ATfim] {
            let base = SimConfig::builder().design(design).build().expect("valid");
            let mut configs = vec![base.clone()];
            configs.extend(crate::config::tests::timing_variations(&base));
            for c in &configs {
                assert_eq!(c.replay_key(), base.replay_key(), "{design}: {c:?}");
            }
            let got = Simulator::render_replay_group(&configs, &stream, 2).expect("group");
            for (i, (c, report)) in configs.iter().zip(&got).enumerate() {
                let solo = Simulator::new(c.clone())
                    .expect("sim")
                    .render_replay(&stream)
                    .expect("solo");
                assert_same(&solo, report, &format!("{design} variation {i}"));
            }
        }
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
