//! Trace capture and replay.
//!
//! The paper's evaluation replays ATTILA API traces captured from
//! running games. This module provides the equivalent facility for our
//! synthetic traces: a [`SceneTrace`] serializes to a compact,
//! versioned binary stream (`PGTR` format) and loads back bit-exactly,
//! so a workload can be generated once, archived, and replayed across
//! simulator versions or shared between machines.
//!
//! Texture *base levels* are stored; the mip pyramid is regenerated on
//! load (the chain construction is deterministic), which keeps traces
//! roughly 25 % smaller than storing every level.

use crate::games::{Game, Resolution};
use crate::scene::{DrawCall, SceneTrace};
use crate::synthetic::{SyntheticSpec, Workload};
use pimgfx_raster::{Camera, Vertex};
use pimgfx_texture::{MippedTexture, TextureImage};
use pimgfx_types::{Mat4, PackedRgba, TextureId, Vec2, Vec3, Vec4};
use std::io::{self, Read, Write};

/// Magic bytes identifying a trace stream.
pub const MAGIC: [u8; 4] = *b"PGTR";
/// Current format version. Version 2 widened the header's game tag
/// into a workload tag (games keep their v1 tags byte-for-byte; tag
/// [`SYNTHETIC_TAG`] is followed by the synthetic spec's fields) and
/// added resolution tags 3/4 (1920×1080, 3840×2160). Version 1 streams
/// still load.
pub const VERSION: u32 = 2;
/// Oldest format version [`load_trace`] still accepts.
pub const MIN_VERSION: u32 = 1;

/// Errors produced while reading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a trace, or is a different version.
    Format(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Format(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Result alias for trace I/O.
pub type TraceResult<T> = Result<T, TraceError>;

// --- primitive writers/readers -----------------------------------------
//
// The little-endian scalar codec is shared with the `PGRPC` wire
// protocol in `pimgfx-serve`, hence public.

/// Writes one little-endian `u32`.
///
/// # Errors
///
/// Propagates any I/O error from `w`.
pub fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes one little-endian IEEE-754 `f32` (bit-exact round trip).
///
/// # Errors
///
/// Propagates any I/O error from `w`.
pub fn put_f32<W: Write>(w: &mut W, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads one little-endian `u32`.
///
/// # Errors
///
/// Propagates any I/O error from `r`, including `UnexpectedEof` on a
/// truncated stream.
pub fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads one little-endian IEEE-754 `f32` (bit-exact round trip).
///
/// # Errors
///
/// Propagates any I/O error from `r`, including `UnexpectedEof` on a
/// truncated stream.
pub fn get_f32<R: Read>(r: &mut R) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

/// Upper bound on any single `Vec::with_capacity` reservation made
/// while decoding (in elements). A stream may *declare* a much larger
/// collection — up to the structural caps — but the reader only
/// reserves up to this much ahead of the bytes actually arriving, so a
/// malicious or corrupt length field cannot trigger a huge up-front
/// allocation; the vector then grows amortized as real data is read.
pub const PREALLOC_CAP: usize = 1 << 16;

/// `Vec::with_capacity` clamped by [`PREALLOC_CAP`]: trust the declared
/// length only as far as a bounded reservation.
fn vec_capped<T>(declared: usize) -> Vec<T> {
    Vec::with_capacity(declared.min(PREALLOC_CAP))
}

fn put_vec3<W: Write>(w: &mut W, v: Vec3) -> io::Result<()> {
    put_f32(w, v.x)?;
    put_f32(w, v.y)?;
    put_f32(w, v.z)
}

fn get_vec3<R: Read>(r: &mut R) -> io::Result<Vec3> {
    Ok(Vec3::new(get_f32(r)?, get_f32(r)?, get_f32(r)?))
}

fn put_vec2<W: Write>(w: &mut W, v: Vec2) -> io::Result<()> {
    put_f32(w, v.x)?;
    put_f32(w, v.y)
}

fn get_vec2<R: Read>(r: &mut R) -> io::Result<Vec2> {
    Ok(Vec2::new(get_f32(r)?, get_f32(r)?))
}

// --- trace format -------------------------------------------------------

/// Serializes `scene` to `w` in `PGTR` format.
///
/// # Errors
///
/// Propagates any I/O error from `w`.
///
/// # Examples
///
/// ```
/// use pimgfx_workloads::{build_scene, trace_io, Game, Resolution};
///
/// let scene = build_scene(Game::Wolfenstein, Resolution::R640x480, 1);
/// let mut buf = Vec::new();
/// trace_io::save_trace(&scene, &mut buf)?;
/// let back = trace_io::load_trace(&buf[..])?;
/// assert_eq!(back.triangles_per_frame(), scene.triangles_per_frame());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn save_trace<W: Write>(scene: &SceneTrace, mut w: W) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    put_u32(&mut w, VERSION)?;
    put_workload(&mut w, scene.workload)?;
    put_u32(&mut w, resolution_tag(scene.resolution))?;
    put_u32(&mut w, scene.shader_alu_ops)?;

    // Textures: base level only.
    put_u32(&mut w, scene.textures.len() as u32)?;
    for tex in &scene.textures {
        let base = tex.level(0);
        put_u32(&mut w, base.width())?;
        put_u32(&mut w, base.height())?;
        for texel in base.iter() {
            put_u32(&mut w, texel.to_u32())?;
        }
    }

    // Draw calls.
    put_u32(&mut w, scene.draws.len() as u32)?;
    for draw in &scene.draws {
        put_u32(&mut w, draw.texture.raw())?;
        put_u32(&mut w, draw.triangles.len() as u32)?;
        for tri in &draw.triangles {
            for v in tri {
                put_vec3(&mut w, v.position)?;
                put_vec3(&mut w, v.normal)?;
                put_vec2(&mut w, v.uv)?;
            }
        }
    }

    // Cameras: eye + view-projection matrix.
    put_u32(&mut w, scene.cameras.len() as u32)?;
    for cam in &scene.cameras {
        put_vec3(&mut w, cam.eye())?;
        let m = cam.view_proj();
        for c in 0..4 {
            let col = m.col(c);
            put_f32(&mut w, col.x)?;
            put_f32(&mut w, col.y)?;
            put_f32(&mut w, col.z)?;
            put_f32(&mut w, col.w)?;
        }
    }
    Ok(())
}

/// Deserializes a `PGTR` trace from `r`.
///
/// # Errors
///
/// Returns [`TraceError::Format`] for a wrong magic/version, a
/// structurally invalid stream, a stream with bytes after its last
/// camera, or a stream that ends before the declared contents
/// (truncation is a malformed trace, not an I/O accident — the caller
/// gets one consistent error class for "these bytes are not a trace").
/// [`TraceError::Io`] is reserved for real read failures from the
/// underlying reader. Declared lengths are never trusted with more than
/// a [`PREALLOC_CAP`]-element reservation, so an oversized length field
/// fails with `Format` once the stream runs dry instead of attempting a
/// huge allocation first.
pub fn load_trace<R: Read>(r: R) -> TraceResult<SceneTrace> {
    match load_trace_inner(r) {
        Err(TraceError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => Err(
            TraceError::Format("truncated stream: ended before the declared contents".to_string()),
        ),
        other => other,
    }
}

fn load_trace_inner<R: Read>(mut r: R) -> TraceResult<SceneTrace> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(TraceError::Format("bad magic".to_string()));
    }
    let version = get_u32(&mut r)?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(TraceError::Format(format!(
            "unsupported version {version} (expected {MIN_VERSION}..={VERSION})"
        )));
    }
    let workload = if version == 1 {
        // v1 headers carry a bare game tag.
        Workload::Game(game_from_tag(get_u32(&mut r)?)?)
    } else {
        get_workload(&mut r)?
    };
    let resolution = resolution_from_tag(get_u32(&mut r)?)?;
    let shader_alu_ops = get_u32(&mut r)?;

    let tex_count = get_u32(&mut r)? as usize;
    if tex_count > 4096 {
        return Err(TraceError::Format(format!(
            "implausible texture count {tex_count}"
        )));
    }
    let mut textures = vec_capped(tex_count);
    for i in 0..tex_count {
        let w = get_u32(&mut r)?;
        let h = get_u32(&mut r)?;
        if w == 0 || h == 0 || w > 8192 || h > 8192 {
            return Err(TraceError::Format(format!(
                "implausible texture size {w}x{h}"
            )));
        }
        let mut texels = vec_capped((w * h) as usize);
        for _ in 0..w * h {
            texels.push(PackedRgba::from_u32(get_u32(&mut r)?));
        }
        textures.push(
            MippedTexture::with_full_chain(TextureImage::from_texels(w, h, texels))
                .with_id(TextureId::new(i as u32)),
        );
    }

    let draw_count = get_u32(&mut r)? as usize;
    if draw_count > 1 << 20 {
        return Err(TraceError::Format("implausible draw count".to_string()));
    }
    let mut draws = vec_capped(draw_count);
    for _ in 0..draw_count {
        let texture = TextureId::new(get_u32(&mut r)?);
        if texture.index() >= textures.len() {
            return Err(TraceError::Format(format!(
                "draw references texture {texture} of {}",
                textures.len()
            )));
        }
        let tri_count = get_u32(&mut r)? as usize;
        if tri_count > 1 << 24 {
            return Err(TraceError::Format("implausible triangle count".to_string()));
        }
        let mut triangles = vec_capped(tri_count);
        for _ in 0..tri_count {
            let mut tri = [Vertex::new(Vec3::ZERO, Vec3::Z, Vec2::ZERO); 3];
            for v in &mut tri {
                let position = get_vec3(&mut r)?;
                let normal = get_vec3(&mut r)?;
                let uv = get_vec2(&mut r)?;
                *v = Vertex::new(position, normal, uv);
            }
            triangles.push(tri);
        }
        draws.push(DrawCall { triangles, texture });
    }

    let cam_count = get_u32(&mut r)? as usize;
    if cam_count == 0 || cam_count > 1 << 20 {
        return Err(TraceError::Format("implausible frame count".to_string()));
    }
    let mut cameras = vec_capped(cam_count);
    for _ in 0..cam_count {
        let eye = get_vec3(&mut r)?;
        let mut cols = [Vec4::ZERO; 4];
        for col in &mut cols {
            *col = Vec4::new(
                get_f32(&mut r)?,
                get_f32(&mut r)?,
                get_f32(&mut r)?,
                get_f32(&mut r)?,
            );
        }
        let m = Mat4::from_cols(cols[0], cols[1], cols[2], cols[3]);
        cameras.push(Camera::from_view_proj(eye, m));
    }
    // The last camera ends the trace: a longer stream is not this trace.
    if io::copy(&mut r.take(1), &mut io::sink())? != 0 {
        return Err(TraceError::Format(
            "trailing bytes after the last camera".to_string(),
        ));
    }

    Ok(SceneTrace {
        workload,
        resolution,
        textures,
        draws,
        cameras,
        shader_alu_ops,
    })
}

/// Wire tag announcing a synthetic workload (game tags 0–4 keep their
/// v1 byte positions; append-only).
pub const SYNTHETIC_TAG: u32 = 5;

/// Writes a workload identity: a bare game tag, or [`SYNTHETIC_TAG`]
/// followed by the spec's integer fields (seed split low/high `u32`,
/// then triangles, textures, texture size, kind mask, grazing
/// per-mille, overdraw, path frames — all little-endian `u32`).
/// Shared by `PGTR` and the `pimgfx-serve` protocol.
///
/// # Errors
///
/// Propagates any I/O error from `w`.
pub fn put_workload<W: Write>(w: &mut W, workload: Workload) -> io::Result<()> {
    match workload {
        Workload::Game(g) => put_u32(w, game_tag(g)),
        Workload::Synthetic(s) => {
            put_u32(w, SYNTHETIC_TAG)?;
            put_u32(w, s.seed as u32)?;
            put_u32(w, (s.seed >> 32) as u32)?;
            put_u32(w, s.triangles)?;
            put_u32(w, s.textures)?;
            put_u32(w, s.texture_size)?;
            put_u32(w, s.kind_mask)?;
            put_u32(w, s.grazing_milli)?;
            put_u32(w, s.overdraw)?;
            put_u32(w, s.path_frames)
        }
    }
}

/// Inverse of [`put_workload`]. Synthetic specs are validated on read,
/// so a decoded workload is always buildable.
///
/// # Errors
///
/// Returns [`TraceError::Format`] for an unknown tag or an invalid
/// synthetic spec; I/O errors propagate from `r`.
pub fn get_workload<R: Read>(r: &mut R) -> TraceResult<Workload> {
    let tag = get_u32(r)?;
    if tag != SYNTHETIC_TAG {
        return Ok(Workload::Game(game_from_tag(tag)?));
    }
    let lo = get_u32(r)?;
    let hi = get_u32(r)?;
    let spec = SyntheticSpec {
        seed: u64::from(lo) | (u64::from(hi) << 32),
        triangles: get_u32(r)?,
        textures: get_u32(r)?,
        texture_size: get_u32(r)?,
        kind_mask: get_u32(r)?,
        grazing_milli: get_u32(r)?,
        overdraw: get_u32(r)?,
        path_frames: get_u32(r)?,
    };
    spec.validate()
        .map_err(|e| TraceError::Format(format!("invalid synthetic spec: {e}")))?;
    Ok(Workload::Synthetic(spec))
}

/// Stable wire tag for a [`Game`] (shared by `PGTR` and the
/// `pimgfx-serve` protocol; append-only — existing tags never change).
pub fn game_tag(g: Game) -> u32 {
    match g {
        Game::Doom3 => 0,
        Game::Fear => 1,
        Game::HalfLife2 => 2,
        Game::Riddick => 3,
        Game::Wolfenstein => 4,
    }
}

/// Inverse of [`game_tag`].
///
/// # Errors
///
/// Returns [`TraceError::Format`] for an unknown tag.
pub fn game_from_tag(t: u32) -> TraceResult<Game> {
    Ok(match t {
        0 => Game::Doom3,
        1 => Game::Fear,
        2 => Game::HalfLife2,
        3 => Game::Riddick,
        4 => Game::Wolfenstein,
        _ => return Err(TraceError::Format(format!("unknown game tag {t}"))),
    })
}

/// Stable wire tag for a [`Resolution`] (shared by `PGTR` and the
/// `pimgfx-serve` protocol; append-only — existing tags never change).
pub fn resolution_tag(r: Resolution) -> u32 {
    match r {
        Resolution::R320x240 => 0,
        Resolution::R640x480 => 1,
        Resolution::R1280x1024 => 2,
        Resolution::R1920x1080 => 3,
        Resolution::R3840x2160 => 4,
    }
}

/// Inverse of [`resolution_tag`].
///
/// # Errors
///
/// Returns [`TraceError::Format`] for an unknown tag.
pub fn resolution_from_tag(t: u32) -> TraceResult<Resolution> {
    Ok(match t {
        0 => Resolution::R320x240,
        1 => Resolution::R640x480,
        2 => Resolution::R1280x1024,
        3 => Resolution::R1920x1080,
        4 => Resolution::R3840x2160,
        _ => return Err(TraceError::Format(format!("unknown resolution tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::build_scene_unchecked;

    fn small_scene() -> SceneTrace {
        let mut p = Game::Riddick.profile();
        p.texture_count = 2;
        p.texture_size = 32;
        p.floor_quads = 2;
        p.facing_props = 1;
        build_scene_unchecked(&p, Resolution::R320x240, 2)
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let scene = small_scene();
        let mut buf = Vec::new();
        save_trace(&scene, &mut buf).expect("serialize");
        let back = load_trace(&buf[..]).expect("deserialize");
        assert_eq!(back.workload, scene.workload);
        assert_eq!(back.resolution, scene.resolution);
        assert_eq!(back.shader_alu_ops, scene.shader_alu_ops);
        assert_eq!(back.textures.len(), scene.textures.len());
        assert_eq!(back.draws.len(), scene.draws.len());
        assert_eq!(back.cameras.len(), scene.cameras.len());
        assert_eq!(back.triangles_per_frame(), scene.triangles_per_frame());
    }

    #[test]
    fn roundtrip_preserves_texels_and_mips() {
        let scene = small_scene();
        let mut buf = Vec::new();
        save_trace(&scene, &mut buf).expect("serialize");
        let back = load_trace(&buf[..]).expect("deserialize");
        for (a, b) in scene.textures.iter().zip(&back.textures) {
            assert_eq!(
                a.level_count(),
                b.level_count(),
                "mips regenerate identically"
            );
            for l in 0..a.level_count() {
                assert_eq!(a.level(l), b.level(l), "level {l} differs");
            }
        }
    }

    #[test]
    fn roundtrip_preserves_geometry_exactly() {
        let scene = small_scene();
        let mut buf = Vec::new();
        save_trace(&scene, &mut buf).expect("serialize");
        let back = load_trace(&buf[..]).expect("deserialize");
        for (da, db) in scene.draws.iter().zip(&back.draws) {
            assert_eq!(da.texture, db.texture);
            assert_eq!(da.triangles, db.triangles);
        }
    }

    #[test]
    fn cameras_replay_identically() {
        use pimgfx_raster::Vertex;
        let scene = small_scene();
        let mut buf = Vec::new();
        save_trace(&scene, &mut buf).expect("serialize");
        let back = load_trace(&buf[..]).expect("deserialize");
        let v = Vertex::new(Vec3::new(0.3, 0.7, -2.0), Vec3::Y, Vec2::new(0.2, 0.8));
        for (a, b) in scene.cameras.iter().zip(&back.cameras) {
            let ca = a.transform_vertex(&v);
            let cb = b.transform_vertex(&v);
            assert_eq!(ca.clip, cb.clip, "clip positions must be bit-identical");
            assert!((ca.view_cos - cb.view_cos).abs() < 1e-6);
        }
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let err = load_trace(&b"NOPE"[..]).expect_err("bad magic");
        assert!(matches!(err, TraceError::Format(_)));
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        let err = load_trace(&buf[..]).expect_err("bad version");
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn rejects_truncated_streams_as_format_errors() {
        let scene = small_scene();
        let mut buf = Vec::new();
        save_trace(&scene, &mut buf).expect("serialize");
        // Cutting the stream anywhere — mid-header, mid-texture,
        // mid-geometry — must yield Format ("not a trace"), never a
        // panic and never a leaked UnexpectedEof.
        for cut in [2, 10, buf.len() / 4, buf.len() / 2, buf.len() - 1] {
            let err = load_trace(&buf[..cut]).expect_err("truncated");
            assert!(
                matches!(&err, TraceError::Format(m) if m.contains("truncated") || m.contains("magic")),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes_as_format_errors() {
        let mut buf = Vec::new();
        save_trace(&small_scene(), &mut buf).expect("serialize");
        buf.push(0);
        let err = load_trace(&buf[..]).expect_err("trailing byte");
        assert!(
            matches!(&err, TraceError::Format(m) if m.contains("trailing bytes")),
            "{err}"
        );
    }

    #[test]
    fn oversized_declared_lengths_fail_without_huge_allocation() {
        // A stream that *declares* the maximum allowed triangle count
        // (1 << 24, just under the structural cap) but carries no data.
        // The reader must reserve at most PREALLOC_CAP elements and
        // fail with Format once the stream runs dry.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // game: doom3
        buf.extend_from_slice(&0u32.to_le_bytes()); // resolution: 320x240
        buf.extend_from_slice(&8u32.to_le_bytes()); // shader alu ops
        buf.extend_from_slice(&1u32.to_le_bytes()); // one texture...
        buf.extend_from_slice(&1u32.to_le_bytes()); // ...1x1
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0xff00ff00u32.to_le_bytes()); // its texel
        buf.extend_from_slice(&1u32.to_le_bytes()); // one draw
        buf.extend_from_slice(&0u32.to_le_bytes()); // texture 0
        buf.extend_from_slice(&(1u32 << 24).to_le_bytes()); // declares 16M tris
        let err = load_trace(&buf[..]).expect_err("stream is empty past the header");
        assert!(
            matches!(&err, TraceError::Format(m) if m.contains("truncated")),
            "{err}"
        );

        // One past the cap is rejected structurally, before any read.
        let pos = buf.len() - 4;
        buf[pos..].copy_from_slice(&((1u32 << 24) + 1).to_le_bytes());
        let err = load_trace(&buf[..]).expect_err("implausible count");
        assert!(err.to_string().contains("triangle count"), "{err}");
    }

    #[test]
    fn synthetic_traces_round_trip_bit_exactly() {
        let spec = SyntheticSpec {
            seed: 0xDEAD_BEEF_0042,
            triangles: 500,
            textures: 3,
            texture_size: 16,
            kind_mask: 0b1010,
            grazing_milli: 750,
            overdraw: 2,
            path_frames: 3,
        };
        let scene = crate::synthetic::synthesize(&spec, Resolution::R3840x2160, 2);
        let mut buf = Vec::new();
        save_trace(&scene, &mut buf).expect("serialize");
        let back = load_trace(&buf[..]).expect("deserialize");
        assert_eq!(back.workload, Workload::Synthetic(spec));
        assert_eq!(back.resolution, Resolution::R3840x2160);
        // Bit-exactness: re-serializing the loaded trace reproduces the
        // original stream byte for byte.
        let mut buf2 = Vec::new();
        save_trace(&back, &mut buf2).expect("re-serialize");
        assert_eq!(buf, buf2, "save→load→save must be a byte fixpoint");
    }

    #[test]
    fn version_one_game_streams_still_load() {
        // v1 and v2 game headers are byte-identical except the version
        // field, so patching it back to 1 yields a genuine v1 stream.
        let scene = small_scene();
        let mut buf = Vec::new();
        save_trace(&scene, &mut buf).expect("serialize");
        buf[4..8].copy_from_slice(&1u32.to_le_bytes());
        let back = load_trace(&buf[..]).expect("v1 stream must load");
        assert_eq!(back.workload, scene.workload);
        assert_eq!(back.triangles_per_frame(), scene.triangles_per_frame());
    }

    #[test]
    fn invalid_synthetic_header_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&SYNTHETIC_TAG.to_le_bytes());
        // seed lo/hi, then a zero triangle budget: invalid.
        for field in [7u32, 0, 0, 2, 16, 3, 0, 1, 1] {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        let err = load_trace(&buf[..]).expect_err("invalid spec");
        assert!(err.to_string().contains("synthetic spec"), "{err}");
    }

    #[test]
    fn new_resolution_tags_round_trip() {
        for r in Resolution::ALL {
            assert_eq!(
                resolution_from_tag(resolution_tag(r)).expect("tag"),
                r,
                "{r}"
            );
        }
        assert_eq!(resolution_tag(Resolution::R1920x1080), 3);
        assert_eq!(resolution_tag(Resolution::R3840x2160), 4);
        assert!(resolution_from_tag(5).is_err());
    }

    #[test]
    fn rejects_dangling_texture_reference() {
        let mut scene = small_scene();
        scene.draws[0].texture = TextureId::new(99);
        let mut buf = Vec::new();
        save_trace(&scene, &mut buf).expect("serialize");
        let err = load_trace(&buf[..]).expect_err("dangling texture");
        assert!(err.to_string().contains("references texture"));
    }

    /// Byte offsets of a saved scene's count words: the texture count,
    /// the draw count, each draw's triangle count, and the camera count.
    fn count_words(scene: &SceneTrace) -> Vec<usize> {
        // Magic, version, a game's workload tag, resolution, shader ops.
        let mut at = 20;
        let mut words = vec![at];
        at += 4;
        for tex in &scene.textures {
            let base = tex.level(0);
            at += 8 + 4 * (base.width() * base.height()) as usize;
        }
        words.push(at);
        at += 4;
        for draw in &scene.draws {
            // Texture id, then the triangle count; 3 vertices of 8 f32s.
            words.push(at + 4);
            at += 8 + 96 * draw.triangles.len();
        }
        words.push(at);
        words
    }

    #[test]
    fn seeded_mutations_never_panic_the_decoder() {
        use pimgfx_types::TinyRng;
        const ROUNDS: usize = 2000;
        let scene = small_scene();
        let mut buf = Vec::new();
        save_trace(&scene, &mut buf).expect("serialize");
        let words = count_words(&scene);
        let word_at =
            |at: usize| u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
        assert_eq!(word_at(words[0]) as usize, scene.textures.len());
        assert_eq!(word_at(words[1]) as usize, scene.draws.len());
        assert_eq!(
            word_at(words[words.len() - 1]) as usize,
            scene.cameras.len()
        );
        // Each camera: its eye and a 4×4 view-projection matrix.
        assert_eq!(
            words[words.len() - 1] + 4 + 76 * scene.cameras.len(),
            buf.len()
        );

        let mut rng = TinyRng::seed_from_u64(0x5047_5452);
        let pick = |rng: &mut TinyRng, n: usize| (rng.next_u64() % n as u64) as usize;
        let mut rejected = 0usize;
        for _ in 0..ROUNDS {
            let mut bad = buf.clone();
            match rng.next_u64() % 4 {
                0 => {
                    for _ in 0..=pick(&mut rng, 3) {
                        let at = pick(&mut rng, bad.len());
                        bad[at] ^= (rng.next_u64() as u8) | 1;
                    }
                }
                1 => bad.truncate(pick(&mut rng, bad.len())),
                _ => {
                    let value = match rng.next_u64() % 4 {
                        0 => 0u32,
                        1 => u32::MAX,
                        2 => (rng.next_u64() % 64) as u32,
                        _ => rng.next_u64() as u32,
                    };
                    let at = words[pick(&mut rng, words.len())];
                    bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
                }
            }
            // Ok or Err are both fine; a panic fails the test.
            rejected += usize::from(load_trace(&bad[..]).is_err());
        }
        // The sweep must actually reach the error paths, not just
        // re-decode streams the mutations happened to leave intact.
        assert!(
            rejected * 2 > ROUNDS,
            "only {rejected} of {ROUNDS} mutated streams rejected"
        );
    }
}
