//! Layer probes of the traced run: each replays a workload's own inputs
//! through one layer's public call and times that call alone.
//!
//! The probes run after the measured loop, so they never affect an
//! end-to-end number. Their inputs are the fragments the rasterizer
//! produces for the first frame of each probed scene, thinned to at
//! most [`MAX_FRAGMENTS`] evenly spaced ones so a 1080p frame costs the
//! same as a small one.

use pimgfx_engine::Cycle;
use pimgfx_mem::{Gddr5, Gddr5Config, Hmc, HmcConfig, MemRequest, MemorySystem, TrafficClass};
use pimgfx_pim::{AtfimLogicLayer, ParentFetchBatch};
use pimgfx_raster::{Fragment, Rasterizer};
use pimgfx_texture::{
    CacheConfig, FetchSet, FilterMode, Sampler, SamplerConfig, TextureCache, TextureLayout,
};
use pimgfx_workloads::SceneTrace;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Fragments fed to the sampler, cache, memory and PIM probes.
pub const MAX_FRAGMENTS: usize = 100_000;

/// Line size the texture caches and memory requests use, bytes.
const LINE_BYTES: u32 = 64;

/// Per-layer values measured by the probes, by metric name.
pub type Layers = BTreeMap<String, f64>;

fn ns_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Rasterizes frame 0 of each scene; returns the mean milliseconds per
/// frame and up to [`MAX_FRAGMENTS`] evenly spaced fragments, each with
/// the index of its scene.
fn raster(scenes: &[&SceneTrace], tile_px: u32) -> (f64, Vec<(usize, Fragment)>) {
    let mut frags = Vec::new();
    let mut total_ms = 0.0;
    for (i, &scene) in scenes.iter().enumerate() {
        let mut r = Rasterizer::with_tile_size(scene.width(), scene.height(), tile_px);
        let camera = &scene.cameras[0];
        // det:boundary — probe timing of Rasterizer::rasterize.
        let start = Instant::now();
        r.begin_frame();
        let mut out: Vec<Fragment> = Vec::new();
        for draw in &scene.draws {
            r.bind_texture(draw.texture);
            for tri in &draw.triangles {
                out.extend(r.rasterize(camera, tri));
            }
        }
        total_ms += start.elapsed().as_secs_f64() * 1e3;
        let share = MAX_FRAGMENTS / scenes.len().max(1);
        let step = out.len().div_ceil(share.max(1)).max(1);
        frags.extend(out.into_iter().step_by(step).map(|f| (i, f)));
    }
    (total_ms / scenes.len().max(1) as f64, frags)
}

/// Address layout of every texture of a scene, as the simulator lays
/// them out: consecutive 4 KiB-aligned regions.
fn layouts(scene: &SceneTrace) -> Vec<TextureLayout> {
    let mut next = 0x1000_0000u64;
    scene
        .textures
        .iter()
        .map(|tex| {
            let dims: Vec<(u32, u32)> = (0..tex.level_count())
                .map(|l| (tex.level(l).width(), tex.level(l).height()))
                .collect();
            let layout = TextureLayout::new(tex.id(), next, &dims);
            next += layout.total_bytes().next_multiple_of(4096);
            layout
        })
        .collect()
}

/// Samples every fragment with `config`; returns ns per sample and, per
/// fragment, its texel line addresses and anisotropy ratio.
fn sample(
    scenes: &[&SceneTrace],
    frags: &[(usize, Fragment)],
    layouts: &[Vec<TextureLayout>],
    config: SamplerConfig,
) -> (f64, Vec<(Vec<u64>, u32, bool)>) {
    let sampler = Sampler::new(config);
    let mut fetches = FetchSet::new();
    let mut infos = Vec::with_capacity(frags.len());
    // det:boundary — probe timing of Sampler::sample_into.
    let start = Instant::now();
    for &(s, f) in frags {
        let info = sampler.sample_into(
            scenes[s].texture(f.texture),
            f.uv,
            f.duv_dx,
            f.duv_dy,
            &mut fetches,
        );
        infos.push(black_box(info).aniso_ratio);
    }
    let ns = ns_per(start, frags.len());
    // Line addresses come from a second, untimed pass.
    let mut out = Vec::with_capacity(frags.len());
    let mut lines = Vec::new();
    for (&(s, f), ratio) in frags.iter().zip(infos) {
        sampler.sample_into(
            scenes[s].texture(f.texture),
            f.uv,
            f.duv_dx,
            f.duv_dy,
            &mut fetches,
        );
        lines.clear();
        layouts[s][f.texture.index()].texel_line_addrs_into(fetches.fetches(), &mut lines);
        lines.sort_unstable();
        lines.dedup();
        let major_x = f.duv_dx.length() >= f.duv_dy.length();
        out.push((lines.clone(), ratio, major_x));
    }
    (ns, out)
}

/// Runs every probe over the scenes' first frames.
pub fn run(scenes: &[&SceneTrace], tile_px: u32) -> Layers {
    let mut out = Layers::new();
    let (raster_ms, frags) = raster(scenes, tile_px);
    out.insert("raster.ms".into(), raster_ms);

    let layouts: Vec<Vec<TextureLayout>> = scenes.iter().map(|&s| layouts(s)).collect();
    let mut conventional = Vec::new();
    for (name, filter) in [
        ("bilinear", FilterMode::Bilinear),
        ("trilinear", FilterMode::Trilinear),
        ("anisotropic", FilterMode::Anisotropic),
    ] {
        let config = SamplerConfig {
            filter,
            ..SamplerConfig::default()
        };
        let (ns, lines) = sample(scenes, &frags, &layouts, config);
        out.insert(format!("texture.sample_ns.{name}"), ns);
        if filter == FilterMode::Anisotropic {
            conventional = lines;
        }
    }

    // L1 texture cache over the anisotropic fetch lines.
    let all_lines: Vec<u64> = conventional
        .iter()
        .flat_map(|(l, _, _)| l.iter().copied())
        .collect();
    let mut cache =
        TextureCache::new(CacheConfig::l1_default()).expect("default L1 config is valid");
    let mut misses: Vec<u64> = Vec::new();
    // det:boundary — probe timing of TextureCache::access.
    let start = Instant::now();
    for &line in &all_lines {
        if cache.access(line).is_miss() {
            misses.push(line);
        }
    }
    out.insert("texture.cache_ns".into(), ns_per(start, all_lines.len()));
    out.insert("texture.cache_hit_ratio".into(), cache.hit_rate());

    // External memory on the cache-miss lines, one request per line
    // arriving a cycle apart.
    let requests: Vec<MemRequest> = misses
        .iter()
        .map(|&a| MemRequest::read(TrafficClass::TextureFetch, a, LINE_BYTES))
        .collect();
    let mut hmc = Hmc::new(HmcConfig::default()).expect("default HMC config is valid");
    out.insert("mem.hmc_ns".into(), time_memory(&mut hmc, &requests));
    let mut gddr5 = Gddr5::new(Gddr5Config::default()).expect("default GDDR5 config is valid");
    out.insert("mem.gddr5_ns".into(), time_memory(&mut gddr5, &requests));

    // A-TFIM logic layer: the reordered sampler's parent lines that miss
    // a fresh L1 become one offload batch per fragment.
    let reordered = SamplerConfig {
        reordered: true,
        ..SamplerConfig::default()
    };
    let (_, parents) = sample(scenes, &frags, &layouts, reordered);
    let mut l1 = TextureCache::new(CacheConfig::l1_default()).expect("default L1 config is valid");
    let batches: Vec<ParentFetchBatch> = parents
        .into_iter()
        .filter_map(|(lines, ratio, major_axis_x)| {
            let missing: Vec<u64> = lines
                .into_iter()
                .filter(|&l| l1.access(l).is_miss())
                .collect();
            (!missing.is_empty() && ratio > 1).then_some(ParentFetchBatch {
                parent_line_addrs: missing,
                aniso_ratio: ratio,
                major_axis_x,
                line_bytes: LINE_BYTES,
            })
        })
        .collect();
    let mut layer = AtfimLogicLayer::with_defaults();
    let mut hmc = Hmc::new(HmcConfig::default()).expect("default HMC config is valid");
    // det:boundary — probe timing of AtfimLogicLayer::process.
    let start = Instant::now();
    for (i, b) in batches.iter().enumerate() {
        black_box(layer.process(Cycle::new(i as u64), b, &mut hmc));
    }
    out.insert("pim.atfim_ns".into(), ns_per(start, batches.len()));
    out
}

fn time_memory(mem: &mut dyn MemorySystem, requests: &[MemRequest]) -> f64 {
    // det:boundary — probe timing of MemorySystem::access_external.
    let start = Instant::now();
    for (i, r) in requests.iter().enumerate() {
        black_box(mem.access_external(Cycle::new(i as u64), r));
    }
    ns_per(start, requests.len())
}
