//! Cluster-parallel replay equivalence: for every design, replaying a
//! cached fragment stream with phase-1 lane precomputation must produce
//! a [`RenderReport`] equal to the serial replay — same cycles, same
//! stats, same traffic, same pixels — for any lane count. The lane
//! partition and the two-phase consume are designed to be byte-identical
//! by construction; this suite is the pin that keeps them that way.

use pimgfx::{Design, FragmentStream, SimConfig, Simulator};
use pimgfx_workloads::{build_workload, Game, Resolution, SyntheticSpec, Workload};
use std::sync::Arc;

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

fn assert_lane_equivalence(workload: Workload, resolution: Resolution, config: &SimConfig) {
    let scene = Arc::new(build_workload(workload, resolution, 1));
    let stream = FragmentStream::build(Arc::clone(&scene), config.tile_px).expect("stream");

    let mut serial_sim = Simulator::new(config.clone()).expect("sim");
    let serial = serial_sim.render_replay(&stream).expect("serial replay");
    serial.audit().expect("serial audit");

    for lanes in [2, 4] {
        let mut lane_sim = Simulator::new(config.clone()).expect("sim");
        let laned = lane_sim
            .render_replay_lanes(&stream, lanes)
            .expect("lane replay");
        laned.audit().expect("lane audit");
        let label = format!(
            "{workload:?} {resolution:?} {:?} lanes={lanes}",
            config.design
        );
        // Headline fields first for a readable failure, then the full
        // report (timing, stats, traffic, energy, trace, and every
        // pixel of the frame image).
        assert_eq!(serial.total_cycles, laned.total_cycles, "cycles: {label}");
        assert_eq!(serial.texture, laned.texture, "texture stats: {label}");
        assert_eq!(serial.traffic, laned.traffic, "traffic: {label}");
        assert!(serial == laned, "full report diverged: {label}");
    }
}

#[test]
fn doom3_all_designs_lane_equivalent() {
    for design in Design::ALL {
        let config = SimConfig::builder().design(design).build().expect("valid");
        assert_lane_equivalence(Workload::Game(Game::Doom3), Resolution::R320x240, &config);
    }
}

#[test]
fn wolfenstein_all_designs_lane_equivalent() {
    for design in Design::ALL {
        let config = SimConfig::builder().design(design).build().expect("valid");
        assert_lane_equivalence(
            Workload::Game(Game::Wolfenstein),
            Resolution::R640x480,
            &config,
        );
    }
}

#[test]
fn synthetic_all_designs_lane_equivalent() {
    for design in Design::ALL {
        let config = SimConfig::builder().design(design).build().expect("valid");
        assert_lane_equivalence(ci_synthetic(), Resolution::R320x240, &config);
    }
}

#[test]
fn compressed_textures_lane_equivalent() {
    // Block compression transcodes the sampled textures; the phase-1
    // precomputer must see the transcoded texels, not the originals.
    for design in [Design::BPim, Design::ATfim] {
        let config = SimConfig::builder()
            .design(design)
            .compressed_textures(true)
            .build()
            .expect("valid");
        assert_lane_equivalence(Workload::Game(Game::Doom3), Resolution::R320x240, &config);
    }
}

#[test]
fn lane_count_above_cluster_count_clamps_and_matches() {
    let config = SimConfig::builder()
        .design(Design::ATfim)
        .build()
        .expect("valid");
    let scene = Arc::new(build_workload(
        Workload::Game(Game::Doom3),
        Resolution::R320x240,
        1,
    ));
    let stream = FragmentStream::build(Arc::clone(&scene), config.tile_px).expect("stream");
    let mut a = Simulator::new(config.clone()).expect("sim");
    let mut b = Simulator::new(config).expect("sim");
    let serial = a.render_replay(&stream).expect("serial");
    let wide = b.render_replay_lanes(&stream, 1024).expect("wide");
    assert!(
        serial == wide,
        "oversized lane count must clamp, not diverge"
    );
}

#[test]
fn one_lane_is_the_serial_path() {
    let config = SimConfig::builder()
        .design(Design::STfim)
        .build()
        .expect("valid");
    let scene = Arc::new(build_workload(
        Workload::Game(Game::Doom3),
        Resolution::R320x240,
        1,
    ));
    let stream = FragmentStream::build(Arc::clone(&scene), config.tile_px).expect("stream");
    let mut a = Simulator::new(config.clone()).expect("sim");
    let mut b = Simulator::new(config).expect("sim");
    let serial = a.render_replay(&stream).expect("serial");
    let one = b.render_replay_lanes(&stream, 1).expect("one lane");
    assert!(serial == one);
}
