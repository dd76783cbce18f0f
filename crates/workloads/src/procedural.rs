//! Procedural texture synthesis.
//!
//! Game-surface-like textures generated deterministically: checkerboards,
//! bricks, value noise, and speckled stone. High-frequency content
//! matters — a flat texture would hide filtering-quality differences, so
//! PSNR in Figs. 15–16 would read as a false 99 dB everywhere.
//!
//! Each generator writes packed texels row by row and computes every
//! per-row, per-column and per-block quantity once, with the same `f32`
//! expressions a per-texel evaluation uses, so every texel keeps its
//! bits: the per-texel generators survive as test oracles
//! (`tests::oracle`) and the tests compare the two texel by texel.

use pimgfx_texture::{MippedTexture, TextureImage};
use pimgfx_types::{PackedRgba, Rgba, TextureId, TinyRng};

/// Texture families the scene generators draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TextureKind {
    /// High-contrast checkerboard (worst case for aliasing).
    Checker,
    /// Brick courses with mortar lines.
    Brick,
    /// Band-limited value noise (organic surfaces).
    Noise,
    /// Speckled stone with veins.
    Stone,
}

impl TextureKind {
    /// All families, in generation rotation order.
    pub const ALL: [TextureKind; 4] = [
        TextureKind::Checker,
        TextureKind::Brick,
        TextureKind::Noise,
        TextureKind::Stone,
    ];
}

/// Generates a `size`×`size` texture of the given family, deterministic
/// in `seed`.
///
/// # Panics
///
/// Panics if `size` is zero.
///
/// # Examples
///
/// ```
/// use pimgfx_workloads::procedural::{generate, TextureKind};
/// let a = generate(TextureKind::Brick, 64, 7);
/// let b = generate(TextureKind::Brick, 64, 7);
/// assert_eq!(a.texel(10, 10), b.texel(10, 10), "deterministic in the seed");
/// ```
pub fn generate(kind: TextureKind, size: u32, seed: u64) -> TextureImage {
    assert!(size > 0, "texture size must be nonzero");
    match kind {
        TextureKind::Checker => checker(size, seed),
        TextureKind::Brick => brick(size, seed),
        TextureKind::Noise => noise(size, seed),
        TextureKind::Stone => stone(size, seed),
    }
}

/// Generates a scene's texture set: texture `i` of `count` is a
/// `size`×`size` texture of kind `kinds[i % kinds.len()]` seeded
/// `seed ^ i`, with its full mip chain and id `i`.
///
/// # Panics
///
/// Panics if `kinds` is empty or `size` is zero.
pub fn texture_set(kinds: &[TextureKind], count: u32, size: u32, seed: u64) -> Vec<MippedTexture> {
    assert!(!kinds.is_empty(), "a texture set needs at least one kind");
    (0..count)
        .map(|i| {
            let kind = kinds[i as usize % kinds.len()];
            let img = generate(kind, size, seed ^ u64::from(i));
            MippedTexture::with_full_chain(img).with_id(TextureId::new(i))
        })
        .collect()
}

fn checker(size: u32, seed: u64) -> TextureImage {
    let mut rng = TinyRng::seed_from_u64(seed);
    let cell = (size / 8).max(1);
    let a = random_color(&mut rng, 0.7, 1.0).to_packed();
    let b = random_color(&mut rng, 0.0, 0.3).to_packed();
    // `(x / cell + y / cell)` is even where the column and row cell
    // parities agree: rows of even `y / cell` start with `a`, rows of
    // odd `y / cell` are the same row with the colors swapped.
    let even_row: Vec<PackedRgba> = (0..size)
        .map(|x| if (x / cell).is_multiple_of(2) { a } else { b })
        .collect();
    let odd_row: Vec<PackedRgba> = (0..size)
        .map(|x| if (x / cell).is_multiple_of(2) { b } else { a })
        .collect();
    let mut texels = Vec::with_capacity(area(size));
    for y in 0..size {
        texels.extend_from_slice(if (y / cell).is_multiple_of(2) {
            &even_row
        } else {
            &odd_row
        });
    }
    TextureImage::from_texels(size, size, texels)
}

fn brick(size: u32, seed: u64) -> TextureImage {
    let mut rng = TinyRng::seed_from_u64(seed ^ 0xB41C);
    let brick_h = (size / 8).max(2);
    let brick_w = (size / 4).max(4);
    let mortar = Rgba::gray(0.75).to_packed();
    let base = random_color(&mut rng, 0.3, 0.6);
    let mortar_row = vec![mortar; size as usize];
    // The texel rows of one course below its mortar line are identical:
    // built once per course, then copied.
    let mut course = Vec::with_capacity(size as usize);
    let mut texels = Vec::with_capacity(area(size));
    for (row, y0) in (0..size).step_by(brick_h as usize).enumerate() {
        let row = row as u32;
        // `y % brick_h < 1`: the course's first row is mortar.
        texels.extend_from_slice(&mortar_row);
        let brick_rows = (size - y0).min(brick_h) - 1;
        if brick_rows == 0 {
            continue;
        }
        course.clear();
        for bx in 0..size.div_ceil(brick_w) {
            // Per-brick tint varies deterministically with position.
            let tint = hash2(bx, row, seed) * 0.12;
            let color = Rgba::new(
                (base.r + tint).min(1.0),
                (base.g + tint * 0.5).min(1.0),
                (base.b + tint * 0.3).min(1.0),
                1.0,
            )
            .to_packed();
            let run = (size - bx * brick_w).min(brick_w);
            course.resize(course.len() + run as usize, color);
        }
        // Mortar columns: `(x + offset) % brick_w < 1`.
        let offset = if row.is_multiple_of(2) {
            0
        } else {
            brick_w / 2
        };
        let first = if offset == 0 { 0 } else { brick_w - offset };
        for x in (first..size).step_by(brick_w as usize) {
            course[x as usize] = mortar;
        }
        for _ in 0..brick_rows {
            texels.extend_from_slice(&course);
        }
    }
    TextureImage::from_texels(size, size, texels)
}

fn noise(size: u32, seed: u64) -> TextureImage {
    // Two-octave value noise on an 8x8 then 16x16 lattice.
    let mut rng = TinyRng::seed_from_u64(seed ^ 0x0153);
    let lattice8: Vec<f32> = (0..81).map(|_| rng.next_f32()).collect();
    let lattice16: Vec<f32> = (0..289).map(|_| rng.next_f32()).collect();
    let tint = random_color(&mut rng, 0.4, 1.0);
    let octave8 = Octave::new(&lattice8, 8, size);
    let octave16 = Octave::new(&lattice16, 16, size);
    let mut texels = Vec::with_capacity(area(size));
    for y in 0..size {
        let (top8, bot8, dv8) = octave8.rows(y);
        let (top16, bot16, dv16) = octave16.rows(y);
        let octave8 = top8.iter().zip(bot8);
        let octave16 = top16.iter().zip(bot16);
        texels.extend(octave8.zip(octave16).map(|((t8, b8), (t16, b16))| {
            let s8 = t8 * (1.0 - dv8) + b8 * dv8;
            let s16 = t16 * (1.0 - dv16) + b16 * dv16;
            let n = 0.65 * s8 + 0.35 * s16;
            Rgba::new(tint.r * n, tint.g * n, tint.b * n, 1.0).to_packed()
        }));
    }
    TextureImage::from_texels(size, size, texels)
}

/// One value-noise octave on an `n`×`n` lattice over a `size`-texel
/// square: every lattice row interpolated across the columns, once.
struct Octave {
    size: u32,
    n: u32,
    /// `lerped[j * size + x]`: lattice row `j` at column `x`,
    /// `lat(iu, j) * (1 - du) + lat(iu + 1, j) * du` for `x`'s cell.
    lerped: Vec<f32>,
}

impl Octave {
    fn new(lattice: &[f32], n: u32, size: u32) -> Self {
        let stride = n as usize + 1;
        let cells: Vec<(usize, f32)> = (0..size).map(|x| lattice_cell(x, size, n)).collect();
        let lerped = lattice
            .chunks_exact(stride)
            .flat_map(|lat_row| {
                cells
                    .iter()
                    .map(|&(iu, du)| lat_row[iu] * (1.0 - du) + lat_row[iu + 1] * du)
            })
            .collect();
        Self { size, n, lerped }
    }

    /// Row `y`'s two interpolated lattice rows and its vertical fraction.
    fn rows(&self, y: u32) -> (&[f32], &[f32], f32) {
        let (iv, dv) = lattice_cell(y, self.size, self.n);
        let w = self.size as usize;
        let top = &self.lerped[iv * w..][..w];
        let bot = &self.lerped[(iv + 1) * w..][..w];
        (top, bot, dv)
    }
}

/// The lattice cell and fraction of texel `i` of `size` on an `n`-cell
/// lattice.
fn lattice_cell(i: u32, size: u32, n: u32) -> (usize, f32) {
    let f = (i as f32 / size as f32) * n as f32;
    (f.floor() as usize, f.fract())
}

fn stone(size: u32, seed: u64) -> TextureImage {
    let mut rng = TinyRng::seed_from_u64(seed ^ 0x570E);
    let base = random_color(&mut rng, 0.35, 0.55);
    let shade = |v: f32| {
        let v = v.clamp(0.0, 1.0);
        Rgba::new(v, v * 0.95, v * 0.9, 1.0).to_packed()
    };
    let vein_period = (size / 4).max(3);
    let blocks = size.div_ceil(4);
    // One 4x4 block row: each texel's vein-free color, and each block's
    // veined color.
    let mut plain = Vec::with_capacity(size as usize);
    let mut veined = Vec::with_capacity(blocks as usize);
    let mut texels = Vec::with_capacity(area(size));
    // `(x + 2 * y) % vein_period` at `x = 0`, advanced by 2 per row.
    let mut phase = 0;
    for by in 0..blocks {
        plain.clear();
        veined.clear();
        for bx in 0..blocks {
            // Speckle at 4-texel granularity with modest amplitude: visible
            // texture without per-texel white noise (which would make any
            // filtering approximation look catastrophic).
            let speckle = hash2(bx, by, seed) * 0.08;
            let lit = base.r + speckle;
            let run = (size - 4 * bx).min(4);
            plain.resize(plain.len() + run as usize, shade(lit));
            veined.push(shade(lit - 0.15));
        }
        for _ in 4 * by..(4 * by + 4).min(size) {
            let start = texels.len();
            texels.extend_from_slice(&plain);
            // Diagonal veins: `(x + 2 * y) % vein_period == 0`.
            let first = if phase == 0 { 0 } else { vein_period - phase };
            for x in (first..size).step_by(vein_period as usize) {
                texels[start + x as usize] = veined[x as usize / 4];
            }
            phase += 2;
            if phase >= vein_period {
                phase -= vein_period;
            }
        }
    }
    TextureImage::from_texels(size, size, texels)
}

/// Texel count of a `size`×`size` texture.
fn area(size: u32) -> usize {
    size as usize * size as usize
}

fn random_color(rng: &mut TinyRng, lo: f32, hi: f32) -> Rgba {
    Rgba::new(
        rng.gen_range_f32(lo, hi),
        rng.gen_range_f32(lo, hi),
        rng.gen_range_f32(lo, hi),
        1.0,
    )
}

/// A cheap deterministic 2D hash in `[0, 1)`.
fn hash2(x: u32, y: u32, seed: u64) -> f32 {
    let mut h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(x).wrapping_mul(0x85EB_CA6B))
        .wrapping_add(u64::from(y).wrapping_mul(0xC2B2_AE35));
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h & 0xFFFF) as f32 / 65536.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-texel generators the row-wise ones replaced: one closure
    /// call per texel recomputing every row, column and block quantity.
    /// The oracles for `generate`.
    mod oracle {
        use super::super::{hash2, random_color, TextureKind};
        use pimgfx_texture::TextureImage;
        use pimgfx_types::{Rgba, TinyRng};

        pub(super) fn generate(kind: TextureKind, size: u32, seed: u64) -> TextureImage {
            match kind {
                TextureKind::Checker => checker(size, seed),
                TextureKind::Brick => brick(size, seed),
                TextureKind::Noise => noise(size, seed),
                TextureKind::Stone => stone(size, seed),
            }
        }

        fn checker(size: u32, seed: u64) -> TextureImage {
            let mut rng = TinyRng::seed_from_u64(seed);
            let cell = (size / 8).max(1);
            let a = random_color(&mut rng, 0.7, 1.0);
            let b = random_color(&mut rng, 0.0, 0.3);
            TextureImage::from_fn(size, size, |x, y| {
                if (x / cell + y / cell).is_multiple_of(2) {
                    a
                } else {
                    b
                }
            })
        }

        fn brick(size: u32, seed: u64) -> TextureImage {
            let mut rng = TinyRng::seed_from_u64(seed ^ 0xB41C);
            let brick_h = (size / 8).max(2);
            let brick_w = (size / 4).max(4);
            let mortar = Rgba::gray(0.75);
            let base = random_color(&mut rng, 0.3, 0.6);
            TextureImage::from_fn(size, size, |x, y| {
                let row = y / brick_h;
                let offset = if row.is_multiple_of(2) {
                    0
                } else {
                    brick_w / 2
                };
                let in_mortar_y = y % brick_h < 1;
                let in_mortar_x = (x + offset) % brick_w < 1;
                if in_mortar_x || in_mortar_y {
                    mortar
                } else {
                    let tint = hash2(x / brick_w, row, seed) * 0.12;
                    Rgba::new(
                        (base.r + tint).min(1.0),
                        (base.g + tint * 0.5).min(1.0),
                        (base.b + tint * 0.3).min(1.0),
                        1.0,
                    )
                }
            })
        }

        fn noise(size: u32, seed: u64) -> TextureImage {
            let mut rng = TinyRng::seed_from_u64(seed ^ 0x0153);
            let lattice8: Vec<f32> = (0..81).map(|_| rng.next_f32()).collect();
            let lattice16: Vec<f32> = (0..289).map(|_| rng.next_f32()).collect();
            let tint = random_color(&mut rng, 0.4, 1.0);
            let sample = |lat: &[f32], n: u32, u: f32, v: f32| -> f32 {
                let fu = u * n as f32;
                let fv = v * n as f32;
                let iu = fu.floor() as usize;
                let iv = fv.floor() as usize;
                let du = fu.fract();
                let dv = fv.fract();
                let at = |i: usize, j: usize| lat[j * (n as usize + 1) + i];
                let top = at(iu, iv) * (1.0 - du) + at(iu + 1, iv) * du;
                let bot = at(iu, iv + 1) * (1.0 - du) + at(iu + 1, iv + 1) * du;
                top * (1.0 - dv) + bot * dv
            };
            TextureImage::from_fn(size, size, |x, y| {
                let u = x as f32 / size as f32;
                let v = y as f32 / size as f32;
                let n = 0.65 * sample(&lattice8, 8, u, v) + 0.35 * sample(&lattice16, 16, u, v);
                Rgba::new(tint.r * n, tint.g * n, tint.b * n, 1.0)
            })
        }

        fn stone(size: u32, seed: u64) -> TextureImage {
            let mut rng = TinyRng::seed_from_u64(seed ^ 0x570E);
            let base = random_color(&mut rng, 0.35, 0.55);
            TextureImage::from_fn(size, size, |x, y| {
                let speckle = hash2(x / 4, y / 4, seed) * 0.08;
                let vein = if (x + 2 * y) % (size / 4).max(3) == 0 {
                    -0.15
                } else {
                    0.0
                };
                let v = (base.r + speckle + vein).clamp(0.0, 1.0);
                Rgba::new(v, v * 0.95, v * 0.9, 1.0)
            })
        }
    }

    /// The first texel where two same-sized images differ, if any.
    fn first_difference(a: &TextureImage, b: &TextureImage) -> Option<(u32, u32)> {
        assert_eq!((a.width(), a.height()), (b.width(), b.height()));
        let i = a.iter().zip(b.iter()).position(|(p, q)| p != q)?;
        Some((i as u32 % a.width(), i as u32 / a.width()))
    }

    /// Every kind at every size class (1, powers of two and their odd
    /// neighbours, non-powers of two) and eight seeds equals the
    /// per-texel oracle texel by texel.
    #[test]
    fn row_wise_generators_match_per_texel_oracle() {
        let sizes = [1, 2, 3, 4, 5, 7, 8, 16, 31, 32, 33, 64, 100, 512];
        let seeds = [
            0,
            1,
            7,
            0xD003,
            0x1F2 ^ 5,
            0xC01D_0011,
            0x5E7E_0002,
            u64::MAX,
        ];
        for kind in TextureKind::ALL {
            for size in sizes {
                for seed in seeds {
                    let got = generate(kind, size, seed);
                    let want = oracle::generate(kind, size, seed);
                    if let Some((x, y)) = first_difference(&got, &want) {
                        panic!(
                            "{kind:?} size {size} seed {seed:#x}: texel ({x},{y}) is {:?}, oracle {:?}",
                            got.texel(x, y).to_packed(),
                            want.texel(x, y).to_packed()
                        );
                    }
                }
            }
        }
    }

    /// FNV-1a over every level of every texture: id, level count, and
    /// per level the dimensions and each texel as little-endian `u32`.
    fn texture_digest<'a>(textures: impl IntoIterator<Item = &'a MippedTexture>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut put = |v: u32| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for tex in textures {
            put(tex.id().index() as u32);
            put(tex.level_count() as u32);
            for l in 0..tex.level_count() {
                let img = tex.level(l);
                put(img.width());
                put(img.height());
                img.iter().for_each(|p| put(p.to_u32()));
            }
        }
        h
    }

    /// The textures of `repro --quick`'s two columns and of one
    /// synthetic spec hash to the digest the per-texel generators and
    /// the division-based mip reduction produced.
    #[test]
    fn quick_column_and_synthetic_textures_match_pinned_digest() {
        use crate::{build_scene, synthesize, Game, Resolution, SyntheticSpec};
        let doom3 = build_scene(Game::Doom3, Resolution::R320x240, 1);
        let wolf = build_scene(Game::Wolfenstein, Resolution::R640x480, 1);
        let spec = SyntheticSpec {
            seed: 0xC0FFEE,
            triangles: 400,
            textures: 5,
            texture_size: 128,
            kind_mask: 0xF,
            grazing_milli: 500,
            overdraw: 1,
            path_frames: 4,
        };
        let synthetic = synthesize(&spec, Resolution::R320x240, 1);
        let all = [&doom3, &wolf, &synthetic]
            .into_iter()
            .flat_map(|s| &s.textures);
        assert_eq!(texture_digest(all), 0x954f_8374_aa5c_4f84);
    }

    #[test]
    fn all_kinds_generate_and_are_deterministic() {
        for (i, kind) in TextureKind::ALL.into_iter().enumerate() {
            let a = generate(kind, 32, i as u64);
            let b = generate(kind, 32, i as u64);
            assert_eq!(a, b, "{kind:?} not deterministic");
            assert_eq!(a.width(), 32);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(TextureKind::Noise, 32, 1);
        let b = generate(TextureKind::Noise, 32, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn textures_have_contrast() {
        // Filtering-quality metrics need non-flat content.
        for kind in TextureKind::ALL {
            let img = generate(kind, 64, 42);
            let mut min = 1.0f32;
            let mut max = 0.0f32;
            for y in 0..64 {
                for x in 0..64 {
                    let l = img.texel(x, y).r;
                    min = min.min(l);
                    max = max.max(l);
                }
            }
            assert!(max - min > 0.1, "{kind:?} is too flat: {min}..{max}");
        }
    }

    #[test]
    fn hash2_is_uniform_enough() {
        let mut sum = 0.0;
        for x in 0..32 {
            for y in 0..32 {
                sum += hash2(x, y, 7);
            }
        }
        let mean = sum / 1024.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_size_panics() {
        let _ = generate(TextureKind::Checker, 0, 0);
    }
}
