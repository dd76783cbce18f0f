//! Replay equivalence: rendering from a cached [`FragmentStream`] must
//! be byte-identical to a direct `render_trace` — same cycles, same
//! counters, same energy, same pixels, same stage traces — for every
//! design point. The frontend is variant-invariant; everything
//! cycle-bearing re-runs during replay, so nothing may drift.

use pimgfx::{Design, FragmentStream, FragmentStreamCache, SimConfig, Simulator};
use pimgfx_raster::{Camera, Fragment, FragmentTile, RasterStats, Rasterizer, Vertex};
use pimgfx_types::{TextureId, TileCoord, Vec2, Vec3};
use pimgfx_workloads::{
    build_scene_unchecked, synthesize, DrawCall, Game, Resolution, SceneTrace, SyntheticSpec,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Reduced-profile scenes (debug-build friendly) for two games.
fn small_scene(game: Game, frames: usize) -> SceneTrace {
    let mut profile = game.profile();
    profile.floor_quads = 4;
    profile.texture_count = 4;
    profile.facing_props = 1;
    build_scene_unchecked(&profile, Resolution::R320x240, frames)
}

#[test]
fn replay_is_byte_identical_across_games_and_designs() {
    for game in [Game::Doom3, Game::Wolfenstein] {
        let scene = Arc::new(small_scene(game, 2));
        let config = SimConfig::default();
        let stream =
            FragmentStream::build(Arc::clone(&scene), config.tile_px).expect("frontend builds");
        assert_eq!(stream.frame_count(), 2);
        assert!(stream.fragment_count() > 0);
        for design in [Design::Baseline, Design::BPim, Design::STfim, Design::ATfim] {
            let config = SimConfig::builder()
                .design(design)
                .build()
                .expect("valid config");
            let direct = Simulator::new(config.clone())
                .expect("valid config")
                .render_trace(&scene)
                .expect("direct render");
            let replayed = Simulator::new(config)
                .expect("valid config")
                .render_replay(&stream)
                .expect("replay");
            assert_eq!(
                direct, replayed,
                "{game:?}/{design}: replay diverged from direct render"
            );
            replayed
                .audit()
                .unwrap_or_else(|e| panic!("{game:?}/{design}: audit failed on replay: {e}"));
        }
    }
}

#[test]
fn replay_rejects_mismatched_tile_size() {
    let scene = Arc::new(small_scene(Game::Doom3, 1));
    let other_tile = SimConfig::default().tile_px * 2;
    let stream = FragmentStream::build(Arc::clone(&scene), other_tile).expect("frontend builds");
    let mut sim = Simulator::new(SimConfig::default()).expect("valid config");
    assert!(sim.render_replay(&stream).is_err());
}

#[test]
fn cached_stream_serves_a_whole_variant_column() {
    let cache = FragmentStreamCache::new(SimConfig::default().tile_px);
    let scene = Arc::new(small_scene(Game::Doom3, 1));
    let direct = Simulator::new(SimConfig::default())
        .expect("valid config")
        .render_trace(&scene)
        .expect("direct render");
    for design in [Design::Baseline, Design::BPim, Design::STfim, Design::ATfim] {
        let stream = cache.get(&scene).expect("stream");
        let config = SimConfig::builder()
            .design(design)
            .build()
            .expect("valid config");
        let report = Simulator::new(config)
            .expect("valid config")
            .render_replay(&stream)
            .expect("replay");
        if design == Design::Baseline {
            assert_eq!(direct, report, "cached replay diverged");
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "the column's frontend ran exactly once");
    assert_eq!(stats.hits, 3, "the other three variants hit the cache");
}

#[test]
fn synthetic_replay_is_byte_identical_to_direct() {
    // Synthetic workloads flow through the same frontend-stream cache
    // path the serving plane uses, so the replay contract must hold
    // for them exactly as it does for the game columns.
    let spec = SyntheticSpec {
        seed: 0xC0FFEE,
        triangles: 400,
        textures: 2,
        texture_size: 32,
        kind_mask: 0x3,
        grazing_milli: 500,
        overdraw: 1,
        path_frames: 2,
    };
    let scene = Arc::new(synthesize(&spec, Resolution::R320x240, 2));
    let stream =
        FragmentStream::build(Arc::clone(&scene), SimConfig::default().tile_px).expect("frontend");
    assert_eq!(stream.frame_count(), 2);
    assert!(
        stream.fragment_count() > 0,
        "synthetic scene must rasterize"
    );
    for design in [Design::Baseline, Design::BPim, Design::STfim, Design::ATfim] {
        let config = SimConfig::builder()
            .design(design)
            .build()
            .expect("valid config");
        let direct = Simulator::new(config.clone())
            .expect("valid config")
            .render_trace(&scene)
            .expect("direct render");
        let replayed = Simulator::new(config)
            .expect("valid config")
            .render_replay(&stream)
            .expect("replay");
        assert_eq!(
            direct, replayed,
            "{spec}/{design}: synthetic replay diverged from direct render"
        );
    }
}

/// A fragment as the bits of every field, so the comparison is exact
/// (`-0.0` and `0.0` differ, a NaN equals itself).
type FragmentBits = [u32; 11];

fn bits(f: &Fragment) -> FragmentBits {
    [
        f.x,
        f.y,
        f.depth.to_bits(),
        f.uv.x.to_bits(),
        f.uv.y.to_bits(),
        f.duv_dx.x.to_bits(),
        f.duv_dx.y.to_bits(),
        f.duv_dy.x.to_bits(),
        f.duv_dy.y.to_bits(),
        f.camera_angle.as_f32().to_bits(),
        f.texture.raw(),
    ]
}

/// One frame of a stream, flattened: per tile its coordinate, its
/// fragments in stream order, and its quad lengths; plus the frame's
/// raster counters.
type FrameView = (Vec<(TileCoord, Vec<FragmentBits>, Vec<u16>)>, RasterStats);

fn view(stream: &FragmentStream) -> Vec<FrameView> {
    (0..stream.frame_count())
        .map(|f| {
            let tiles = stream
                .frame_tiles(f)
                .map(|t| {
                    (
                        t.coord,
                        t.fragments.iter().map(bits).collect(),
                        t.quad_lens.to_vec(),
                    )
                })
                .collect();
            (tiles, stream.frame_raster(f).expect("frame exists"))
        })
        .collect()
}

/// The frontend as a reference: shade every triangle with
/// `Rasterizer::rasterize`, bin with `FragmentTile::group`, and group
/// each tile into quads by first occurrence of `(x/2, y/2, texture)`,
/// fragments in arrival order.
fn oracle(scene: &SceneTrace, tile_px: u32) -> Vec<FrameView> {
    let mut raster = Rasterizer::with_tile_size(scene.width(), scene.height(), tile_px);
    scene
        .cameras
        .iter()
        .map(|camera| {
            raster.begin_frame();
            let mut fragments = Vec::new();
            for draw in &scene.draws {
                raster.bind_texture(draw.texture);
                for tri in &draw.triangles {
                    fragments.extend(raster.rasterize(camera, tri));
                }
            }
            let tiles = FragmentTile::group(fragments, tile_px)
                .into_iter()
                .map(|tile| {
                    let mut quads: Vec<Vec<Fragment>> = Vec::new();
                    let mut index: BTreeMap<(u32, u32, u32), usize> = BTreeMap::new();
                    for f in tile.fragments {
                        let at = *index
                            .entry((f.x / 2, f.y / 2, f.texture.raw()))
                            .or_insert_with(|| {
                                quads.push(Vec::new());
                                quads.len() - 1
                            });
                        quads[at].push(f);
                    }
                    let lens = quads.iter().map(|q| q.len() as u16).collect();
                    (tile.coord, quads.iter().flatten().map(bits).collect(), lens)
                })
                .collect();
            (tiles, *raster.stats())
        })
        .collect()
}

/// Asserts the stream of `scene` equals the oracle at every worker
/// count in 1..=4.
fn assert_matches_oracle(scene: &Arc<SceneTrace>, tile_px: u32, what: &str) -> Vec<FrameView> {
    let expected = oracle(scene, tile_px);
    assert!(
        expected.iter().any(|(tiles, _)| !tiles.is_empty()),
        "{what}: the scene must rasterize"
    );
    for workers in 1..=4 {
        let stream = FragmentStream::build_with_workers(Arc::clone(scene), tile_px, workers)
            .expect("frontend builds");
        let got = view(&stream);
        assert_eq!(got.len(), expected.len(), "{what}: frame count");
        for (f, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g.1, e.1, "{what}/{workers} workers: frame {f} raster stats");
            assert_eq!(
                g.0.len(),
                e.0.len(),
                "{what}/{workers} workers: frame {f} tiles"
            );
            for (gt, et) in g.0.iter().zip(&e.0) {
                assert!(
                    gt == et,
                    "{what}/{workers} workers: frame {f} tile {} differs",
                    et.0
                );
            }
        }
    }
    expected
}

/// A scene built for hierarchical-Z rejects: a near wall covering the
/// screen is drawn first, so later triangles behind it are rejected
/// whole; triangles in front of the wall, and the game geometry, still
/// rasterize.
fn hiz_scene() -> SceneTrace {
    let mut scene = small_scene(Game::Doom3, 2);
    let v = |x: f32, y: f32, z: f32, u: f32, w: f32| {
        Vertex::new(Vec3::new(x, y, z), Vec3::Z, Vec2::new(u, w))
    };
    let quad = |z: f32, half: f32, (cx, cy): (f32, f32)| {
        let (x0, x1, y0, y1) = (cx - half, cx + half, cy - half, cy + half);
        [
            [
                v(x0, y0, z, 0.0, 0.0),
                v(x1, y0, z, 1.0, 0.0),
                v(x0, y1, z, 0.0, 1.0),
            ],
            [
                v(x1, y0, z, 1.0, 0.0),
                v(x1, y1, z, 1.0, 1.0),
                v(x0, y1, z, 0.0, 1.0),
            ],
        ]
    };
    let mut behind = Vec::new();
    let mut front = Vec::new();
    for i in 0..6 {
        let c = (i as f32 * 0.3 - 0.75, i as f32 * 0.2 - 0.5);
        behind.extend(quad(-1.0 - i as f32 * 0.1, 0.4, c));
        front.extend(quad(1.5, 0.15, c));
    }
    let mut draws = vec![
        DrawCall {
            triangles: quad(1.0, 4.0, (0.0, 0.0)).to_vec(),
            texture: TextureId::new(0),
        },
        DrawCall {
            triangles: behind,
            texture: TextureId::new(1),
        },
        DrawCall {
            triangles: front,
            texture: TextureId::new(1),
        },
    ];
    draws.append(&mut scene.draws);
    scene.draws = draws;
    let aspect = scene.width() as f32 / scene.height() as f32;
    scene.cameras = vec![
        Camera::look_at(Vec3::new(0.0, 0.0, 3.0), Vec3::ZERO, Vec3::Y, 1.0, aspect),
        Camera::look_at(Vec3::new(0.3, 0.1, 3.2), Vec3::ZERO, Vec3::Y, 1.0, aspect),
    ];
    scene
}

#[test]
fn stream_matches_oracle_at_every_worker_count() {
    for game in [Game::Doom3, Game::Wolfenstein] {
        let scene = Arc::new(small_scene(game, 2));
        // 16 is Table I's tile; 240 / 32 leaves a partial last tile
        // row; an odd tile puts 2x2 quads across tile edges.
        for tile_px in [16, 32, 7] {
            assert_matches_oracle(&scene, tile_px, &format!("{game:?}@{tile_px}"));
        }
    }
    let scene = Arc::new(hiz_scene());
    for tile_px in [16, 32] {
        let expected = assert_matches_oracle(&scene, tile_px, &format!("hi-z@{tile_px}"));
        assert!(
            expected.iter().all(|(_, raster)| raster.hiz_rejected > 0),
            "every frame of the Hi-Z scene must reject whole triangles"
        );
    }
}

#[test]
fn stream_matches_oracle_at_1080p() {
    // Release-only (the replay-equivalence CI leg): a full 1920x1080
    // synthetic column, whose 1080 rows leave a partial last tile row.
    if cfg!(debug_assertions) {
        return;
    }
    let spec = SyntheticSpec {
        seed: 0xC01D_0000,
        triangles: 2000,
        textures: 6,
        texture_size: 64,
        kind_mask: 0xF,
        grazing_milli: 1000,
        overdraw: 1,
        path_frames: 8,
    };
    let scene = Arc::new(synthesize(&spec, Resolution::R1920x1080, 1));
    assert_matches_oracle(&scene, SimConfig::default().tile_px, "syn-1920x1080");
}
