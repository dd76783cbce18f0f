//! Byte addressing of texels in simulated memory.
//!
//! The traffic and cache models need a byte address for every texel a
//! filter touches. Textures are stored block-linear: each mip level is an
//! array of 4×4-texel blocks (64 bytes — exactly one cache line), so a
//! cache line captures a square neighborhood rather than a thin row
//! strip. This is how real GPUs tile textures and is what gives bilinear
//! footprints their high cache locality.

use crate::filter::TexelFetch;
use pimgfx_types::TextureId;

/// Bytes per texel (RGBA8).
pub const TEXEL_BYTES: u64 = 4;
/// Texels along one edge of a tiling block.
pub const BLOCK_EDGE: u32 = 4;
/// Bytes per 4×4 block (= one 64-byte cache line).
pub const BLOCK_BYTES: u64 = (BLOCK_EDGE as u64) * (BLOCK_EDGE as u64) * TEXEL_BYTES;

/// Address calculator for one mipmapped texture.
///
/// Each texture occupies a contiguous region of the simulated address
/// space, carved per level; each level is an array of 4×4 blocks in
/// row-major block order.
///
/// # Examples
///
/// ```
/// use pimgfx_texture::TextureLayout;
/// use pimgfx_types::TextureId;
///
/// let layout = TextureLayout::new(TextureId::new(0), 0x10_0000, &[(8, 8), (4, 4), (2, 2), (1, 1)]);
/// // Texels in the same 4x4 block share a cache line.
/// assert_eq!(
///     layout.texel_addr(0, 0, 0) / 64,
///     layout.texel_addr(3, 3, 0) / 64
/// );
/// // Texels in different blocks do not.
/// assert_ne!(
///     layout.texel_addr(0, 0, 0) / 64,
///     layout.texel_addr(4, 0, 0) / 64
/// );
/// ```
#[derive(Debug, Clone)]
pub struct TextureLayout {
    id: TextureId,
    base_addr: u64,
    /// Per level: (width, height, byte offset from base).
    levels: Vec<(u32, u32, u64)>,
    total_bytes: u64,
}

impl TextureLayout {
    /// Lays out a texture whose level dimensions are given base-first.
    ///
    /// # Panics
    ///
    /// Panics if `level_dims` is empty or contains a zero dimension.
    pub fn new(id: TextureId, base_addr: u64, level_dims: &[(u32, u32)]) -> Self {
        assert!(!level_dims.is_empty(), "texture needs at least one level");
        let mut levels = Vec::with_capacity(level_dims.len());
        let mut offset = 0u64;
        for &(w, h) in level_dims {
            assert!(w > 0 && h > 0, "level dimensions must be nonzero");
            levels.push((w, h, offset));
            offset += level_bytes(w, h);
        }
        Self {
            id,
            base_addr,
            levels,
            total_bytes: offset,
        }
    }

    /// The texture this layout addresses.
    pub fn id(&self) -> TextureId {
        self.id
    }

    /// First byte of the texture's region.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Bytes the whole pyramid occupies (block-padded).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of levels laid out.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Byte address of texel `(x, y)` in mip `level`.
    ///
    /// # Panics
    ///
    /// Panics if the level or coordinates are out of range.
    #[inline]
    pub fn texel_addr(&self, x: u32, y: u32, level: usize) -> u64 {
        let (w, h, level_off) = self.levels[level];
        assert!(
            x < w && y < h,
            "texel ({x},{y}) outside {w}x{h} level {level}"
        );
        let blocks_per_row = w.div_ceil(BLOCK_EDGE) as u64;
        let bx = u64::from(x / BLOCK_EDGE);
        let by = u64::from(y / BLOCK_EDGE);
        let block_index = by * blocks_per_row + bx;
        let in_block = u64::from((y % BLOCK_EDGE) * BLOCK_EDGE + (x % BLOCK_EDGE)) * TEXEL_BYTES;
        self.base_addr + level_off + block_index * BLOCK_BYTES + in_block
    }

    /// The cache-line (block) address containing texel `(x, y, level)`.
    #[inline]
    pub fn texel_line_addr(&self, x: u32, y: u32, level: usize) -> u64 {
        let a = self.texel_addr(x, y, level);
        a - (a % BLOCK_BYTES)
    }

    /// Cache-line addresses for a whole fetch trace, written into `out`
    /// (cleared first), one address per fetch in trace order.
    ///
    /// Byte-identical to calling [`TextureLayout::texel_line_addr`] per
    /// fetch; batching over runs of same-level fetches hoists the level
    /// lookup and row-stride math out of the per-texel loop so the
    /// block arithmetic runs over the flat trace.
    ///
    /// # Panics
    ///
    /// Panics if any fetch's level or coordinates are out of range.
    pub fn texel_line_addrs_into(&self, fetches: &[TexelFetch], out: &mut Vec<u64>) {
        out.clear();
        out.reserve(fetches.len());
        let mut i = 0;
        while i < fetches.len() {
            let level = fetches[i].level;
            let run_len = fetches[i..]
                .iter()
                .position(|f| f.level != level)
                .unwrap_or(fetches.len() - i);
            let (w, h, level_off) = self.levels[usize::from(level)];
            let level_base = self.base_addr + level_off;
            let blocks_per_row = u64::from(w.div_ceil(BLOCK_EDGE));
            for f in &fetches[i..i + run_len] {
                assert!(
                    f.x < w && f.y < h,
                    "texel ({},{}) outside {w}x{h} level {level}",
                    f.x,
                    f.y
                );
                let block_index =
                    u64::from(f.y / BLOCK_EDGE) * blocks_per_row + u64::from(f.x / BLOCK_EDGE);
                let in_block =
                    u64::from((f.y % BLOCK_EDGE) * BLOCK_EDGE + (f.x % BLOCK_EDGE)) * TEXEL_BYTES;
                let a = level_base + block_index * BLOCK_BYTES + in_block;
                out.push(a - a % BLOCK_BYTES);
            }
            i += run_len;
        }
    }
}

/// Storage bytes for one level, padded to whole blocks.
fn level_bytes(w: u32, h: u32) -> u64 {
    let blocks = u64::from(w.div_ceil(BLOCK_EDGE)) * u64::from(h.div_ceil(BLOCK_EDGE));
    blocks * BLOCK_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> TextureLayout {
        TextureLayout::new(TextureId::new(1), 4096, &[(8, 8), (4, 4), (2, 2), (1, 1)])
    }

    #[test]
    fn block_padding_and_totals() {
        let l = layout();
        // 8x8 => 4 blocks, 4x4 => 1, 2x2 => 1 (padded), 1x1 => 1 (padded).
        assert_eq!(l.total_bytes(), (4 + 1 + 1 + 1) * BLOCK_BYTES);
    }

    #[test]
    fn levels_are_disjoint_regions() {
        let l = layout();
        let a0 = l.texel_addr(7, 7, 0);
        let a1 = l.texel_addr(0, 0, 1);
        assert!(a0 < a1, "level 1 starts after level 0 ends");
        assert_eq!(a1, 4096 + 4 * BLOCK_BYTES);
    }

    #[test]
    fn addresses_are_unique_within_level() {
        let l = layout();
        let mut seen = std::collections::HashSet::new();
        for y in 0..8 {
            for x in 0..8 {
                assert!(seen.insert(l.texel_addr(x, y, 0)), "duplicate at ({x},{y})");
            }
        }
    }

    #[test]
    fn block_tiling_keeps_neighborhoods_in_one_line() {
        let l = layout();
        let line = l.texel_line_addr(1, 1, 0);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(l.texel_line_addr(x, y, 0), line);
            }
        }
        assert_ne!(l.texel_line_addr(4, 0, 0), line);
        assert_ne!(l.texel_line_addr(0, 4, 0), line);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_texel_panics() {
        let _ = layout().texel_addr(8, 0, 0);
    }

    #[test]
    fn base_addr_offsets_everything() {
        let a = TextureLayout::new(TextureId::new(0), 0, &[(4, 4)]);
        let b = TextureLayout::new(TextureId::new(0), 1 << 20, &[(4, 4)]);
        assert_eq!(b.texel_addr(2, 2, 0) - a.texel_addr(2, 2, 0), 1 << 20);
    }

    #[test]
    fn batched_line_addrs_match_per_texel_calls() {
        // An unaligned base exercises the `a - a % BLOCK_BYTES` fold.
        let l = TextureLayout::new(TextureId::new(1), 4096 + 12, &[(8, 8), (4, 4), (2, 2)]);
        // Mixed-level trace with runs (the batch helper's fast path) and
        // single-fetch runs (its degenerate path).
        let trace: Vec<TexelFetch> = [
            (0u32, 0u32, 0u8),
            (3, 3, 0),
            (7, 1, 0),
            (1, 2, 1),
            (0, 0, 2),
            (5, 5, 0),
            (2, 6, 0),
        ]
        .into_iter()
        .map(|(x, y, level)| TexelFetch { x, y, level })
        .collect();
        let mut got = Vec::new();
        l.texel_line_addrs_into(&trace, &mut got);
        let want: Vec<u64> = trace
            .iter()
            .map(|f| l.texel_line_addr(f.x, f.y, usize::from(f.level)))
            .collect();
        assert_eq!(got, want);
        // Reuse with a shorter trace clears stale entries.
        l.texel_line_addrs_into(&trace[..2], &mut got);
        assert_eq!(got.len(), 2);
    }
}
