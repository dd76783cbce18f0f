//! Seeded random phase-1 inputs shared by the unit tests: textures with
//! non-power-of-two sizes under every wrap mode (down to 1×1 mips), and
//! fragment quads whose positions cross the texture borders and whose
//! footprints run from magnified to grazing, plus a few with NaN and
//! infinite derivatives.

use pimgfx_raster::Fragment;
use pimgfx_texture::{MippedTexture, TextureImage, TextureLayout, WrapMode};
use pimgfx_types::{Radians, Rgba, TextureId, TinyRng, Vec2};

/// Textures of awkward sizes under every wrap mode, with the layouts the
/// simulator would give them (texture `i` has id `i`).
pub(crate) fn textures() -> (Vec<MippedTexture>, Vec<TextureLayout>) {
    let mut textures = Vec::new();
    for (w, h) in [(37u32, 23u32), (5, 64), (1, 1), (3, 1), (64, 64), (16, 16)] {
        for wrap in [WrapMode::Repeat, WrapMode::Clamp, WrapMode::Mirror] {
            let img = TextureImage::from_fn(w, h, |x, y| {
                let v = (x * 7 + y * 13) % 17;
                Rgba::new(
                    v as f32 / 16.0,
                    x as f32 / w as f32,
                    y as f32 / h as f32,
                    1.0,
                )
            });
            let id = TextureId::new(textures.len() as u32);
            textures.push(
                MippedTexture::with_full_chain(img)
                    .with_wrap(wrap)
                    .with_id(id),
            );
        }
    }
    let layouts = textures
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let dims: Vec<(u32, u32)> = (0..t.level_count())
                .map(|l| (t.level(l).width(), t.level(l).height()))
                .collect();
            TextureLayout::new(t.id(), 0x1000_0000 + ((i as u64) << 20), &dims)
        })
        .collect();
    (textures, layouts)
}

/// `count` quads of one to four fragments, each quad on one of
/// `textures`; every 50th fragment has a NaN or infinite derivative.
pub(crate) fn quads(seed: u64, textures: &[MippedTexture], count: usize) -> Vec<Vec<Fragment>> {
    let mut rng = TinyRng::seed_from_u64(seed);
    let mut made = 0usize;
    (0..count)
        .map(|_| {
            let t = (rng.next_u64() % textures.len() as u64) as usize;
            let size = Vec2::new(textures[t].width() as f32, textures[t].height() as f32);
            let len = 1 + (rng.next_u64() % 4) as usize;
            let base = Vec2::new(rng.gen_range_f32(-0.3, 1.3), rng.gen_range_f32(-0.3, 1.3));
            (0..len)
                .map(|_| {
                    made += 1;
                    // Footprint axes in base-level texels, then in uv units.
                    let angle = rng.gen_range_f32(0.0, std::f32::consts::TAU);
                    let major = rng.gen_range_f32(-2.0, 7.0).exp2();
                    let minor = major / rng.gen_range_f32(0.0, 5.0).exp2();
                    let mut dx = Vec2::new(angle.cos() * major, angle.sin() * major);
                    let dy = Vec2::new(-angle.sin() * minor, angle.cos() * minor);
                    if made.is_multiple_of(50) {
                        let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
                        dx.x = bad[(made / 50) % 3];
                    }
                    let jitter =
                        Vec2::new(rng.gen_range_f32(0.0, 2.0), rng.gen_range_f32(0.0, 2.0));
                    Fragment {
                        x: 0,
                        y: 0,
                        depth: 0.5,
                        uv: Vec2::new(base.x + jitter.x / size.x, base.y + jitter.y / size.y),
                        duv_dx: Vec2::new(dx.x / size.x, dx.y / size.y),
                        duv_dy: Vec2::new(dy.x / size.x, dy.y / size.y),
                        camera_angle: Radians::new(rng.gen_range_f32(0.0, 1.5)),
                        texture: TextureId::new(t as u32),
                    }
                })
                .collect()
        })
        .collect()
}
