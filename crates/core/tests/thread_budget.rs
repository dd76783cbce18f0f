//! The frontend build draws its worker count from the shared thread
//! budget (`PIMGFX_THREADS`), and the stream must not depend on it.
//!
//! This file holds a single test on purpose: it sets the environment
//! variable, and no other test of this binary may read it meanwhile.

use pimgfx::budget::{configured_workers, THREADS_ENV};
use pimgfx::{FragmentStream, SimConfig};
use pimgfx_workloads::{build_scene_unchecked, Game, Resolution};
use std::sync::Arc;

#[test]
fn build_under_one_thread_equals_build_under_two() {
    let mut profile = Game::Doom3.profile();
    profile.floor_quads = 4;
    profile.texture_count = 4;
    profile.facing_props = 1;
    let scene = Arc::new(build_scene_unchecked(&profile, Resolution::R320x240, 2));
    let tile_px = SimConfig::default().tile_px;

    let build_under = |budget: &str| {
        std::env::set_var(THREADS_ENV, budget);
        assert_eq!(
            configured_workers().expect("valid budget").to_string(),
            budget
        );
        FragmentStream::build(Arc::clone(&scene), tile_px).expect("frontend builds")
    };
    let serial = build_under("1");
    let wide = build_under("2");
    std::env::set_var(THREADS_ENV, "not-a-number");
    assert!(
        FragmentStream::build(Arc::clone(&scene), tile_px).is_err(),
        "a malformed budget fails the build instead of guessing"
    );
    std::env::remove_var(THREADS_ENV);

    assert_eq!(serial.frame_count(), wide.frame_count());
    assert!(serial.fragment_count() > 0);
    assert_eq!(serial.fragment_count(), wide.fragment_count());
    assert_eq!(serial.quad_count(), wide.quad_count());
    for frame in 0..serial.frame_count() {
        assert_eq!(serial.frame_raster(frame), wide.frame_raster(frame));
        assert!(
            serial.frame_tiles(frame).eq(wide.frame_tiles(frame)),
            "frame {frame}: tiles differ between budgets 1 and 2"
        );
    }
}
