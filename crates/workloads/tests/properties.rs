//! Property tests for the workload generators and trace I/O.
//!
//! Each property draws its inputs from a fixed-seed [`TinyRng`], so
//! every run checks the same cases; a failing case prints its inputs.

use pimgfx_types::TinyRng;
use pimgfx_workloads::{build_scene_unchecked, trace_io, Game, GameProfile, Resolution};

const CASES: usize = 24;

/// A shrunken profile of any game: 2..6 floor quads, 2..6 textures of
/// 32 or 64 texels, 0..3 facing props, 1..3 overdraw layers, any seed.
fn profile(rng: &mut TinyRng) -> GameProfile {
    let game = Game::ALL[rng.gen_range_u64(0, Game::ALL.len() as u64) as usize];
    let mut p = game.profile();
    p.floor_quads = rng.gen_range_u64(2, 6) as u32;
    p.texture_count = rng.gen_range_u64(2, 6) as u32;
    p.texture_size = 1 << rng.gen_range_u64(5, 7);
    p.facing_props = rng.gen_range_u64(0, 3) as u32;
    p.overdraw_layers = rng.gen_range_u64(1, 3) as u32;
    p.seed = rng.next_u64();
    p
}

/// Scene generation is a pure function of its profile.
#[test]
fn scene_generation_is_deterministic() {
    let mut rng = TinyRng::seed_from_u64(0x30ad_0001);
    for _ in 0..CASES {
        let profile = profile(&mut rng);
        let a = build_scene_unchecked(&profile, Resolution::R320x240, 1);
        let b = build_scene_unchecked(&profile, Resolution::R320x240, 1);
        assert_eq!(
            a.triangles_per_frame(),
            b.triangles_per_frame(),
            "{profile:?}"
        );
        assert_eq!(a.textures.len(), b.textures.len(), "{profile:?}");
        for (ta, tb) in a.textures.iter().zip(&b.textures) {
            assert!(ta.level(0) == tb.level(0), "texture differs: {profile:?}");
        }
        for (da, db) in a.draws.iter().zip(&b.draws) {
            assert_eq!(&da.triangles, &db.triangles, "{profile:?}");
        }
    }
}

/// Every generated scene is structurally valid: nonempty draws,
/// resolvable texture references, unit-ish normals, and one camera
/// per frame.
#[test]
fn scenes_are_structurally_valid() {
    let mut rng = TinyRng::seed_from_u64(0x30ad_0002);
    for _ in 0..CASES {
        let profile = profile(&mut rng);
        let frames = rng.gen_range_u64(1, 4) as usize;
        let case = format!("frames={frames} {profile:?}");
        let s = build_scene_unchecked(&profile, Resolution::R320x240, frames);
        assert!(!s.draws.is_empty(), "{case}");
        assert_eq!(s.cameras.len(), frames, "{case}");
        for d in &s.draws {
            assert!(d.texture.index() < s.textures.len(), "{case}");
            for tri in &d.triangles {
                for v in tri {
                    assert!((v.normal.length() - 1.0).abs() < 1e-3, "{v:?}: {case}");
                    assert!(v.position.length() < 1e4, "{v:?}: {case}");
                }
            }
        }
    }
}

/// Trace serialization round-trips any generated scene exactly.
#[test]
fn trace_roundtrip_is_exact() {
    let mut rng = TinyRng::seed_from_u64(0x30ad_0003);
    for _ in 0..CASES {
        let profile = profile(&mut rng);
        let scene = build_scene_unchecked(&profile, Resolution::R320x240, 2);
        let mut buf = Vec::new();
        trace_io::save_trace(&scene, &mut buf).expect("serialize");
        let back = trace_io::load_trace(&buf[..]).expect("deserialize");
        assert_eq!(back.workload, scene.workload, "{profile:?}");
        assert_eq!(back.shader_alu_ops, scene.shader_alu_ops, "{profile:?}");
        assert_eq!(back.draws.len(), scene.draws.len(), "{profile:?}");
        for (da, db) in scene.draws.iter().zip(&back.draws) {
            assert_eq!(&da.triangles, &db.triangles, "{profile:?}");
            assert_eq!(da.texture, db.texture, "{profile:?}");
        }
        for (ta, tb) in scene.textures.iter().zip(&back.textures) {
            assert!(ta.level(0) == tb.level(0), "texture differs: {profile:?}");
            assert_eq!(ta.level_count(), tb.level_count(), "{profile:?}");
        }
    }
}

/// A truncated trace never parses (no silent partial loads).
#[test]
fn truncated_traces_fail() {
    let mut rng = TinyRng::seed_from_u64(0x30ad_0004);
    for _ in 0..CASES {
        let profile = profile(&mut rng);
        let cut = rng.gen_range_u64(5, 95) as usize;
        let scene = build_scene_unchecked(&profile, Resolution::R320x240, 1);
        let mut buf = Vec::new();
        trace_io::save_trace(&scene, &mut buf).expect("serialize");
        let end = buf.len() * cut / 100;
        assert!(
            trace_io::load_trace(&buf[..end]).is_err(),
            "cut={cut} {profile:?}"
        );
    }
}
