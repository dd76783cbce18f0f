//! The A-TFIM functional parent-value store, blocked by cache line.
//!
//! A-TFIM reuses a previously computed parent texel value only when the
//! texel's angle-tagged cache line hits (paper §V-C). The store keeps
//! the last `(camera angle, value)` pair per parent texel. Its block is
//! the texture-cache line itself: [`TextureLayout`] maps each 4×4-texel
//! block of a mip level to one 64-byte line, so the store keeps, per
//! texture and mip level, a dense index from block number
//! `(wy / 4) · ⌈w / 4⌉ + wx / 4` to a slot in an arena of 16-texel
//! blocks. A parent line probed once resolves to one arena slot, and
//! every corner that shares the line reuses it. The arena grows in
//! fixed-size slabs, so a block, once allocated, is never copied.
//!
//! [`TextureLayout`]: pimgfx_texture::TextureLayout

use pimgfx_texture::layout::BLOCK_EDGE;
use pimgfx_types::{Radians, Rgba};

/// Texels per block (one cache line).
const BLOCK_TEXELS: usize = (BLOCK_EDGE * BLOCK_EDGE) as usize;
/// Index entry of a block that holds no texel yet.
const ABSENT: u32 = u32::MAX;
/// Blocks per arena slab (about 81 KiB). A `Vec` of blocks would copy
/// every block on each doubling and hold both copies meanwhile: one
/// Wolfenstein 640×480 A-TFIM replay peaked at 17.4 MiB of arena for
/// 10.5 MiB of live blocks.
const SLAB_BLOCKS: usize = 256;

/// The stored parents of one 4×4-texel block.
#[derive(Debug, Clone, Copy)]
struct ParentBlock {
    angles: [Radians; BLOCK_TEXELS],
    values: [Rgba; BLOCK_TEXELS],
    /// Bit `t` set: texel `t` holds a stored pair.
    valid: u16,
}

impl ParentBlock {
    const EMPTY: Self = Self {
        angles: [Radians::ZERO; BLOCK_TEXELS],
        values: [Rgba::TRANSPARENT; BLOCK_TEXELS],
        valid: 0,
    };
}

/// Block-number → arena-slot index of one mip level, sized on the
/// level's first block.
#[derive(Debug, Default)]
struct LevelIndex {
    blocks_per_row: u32,
    slots: Vec<u32>,
}

/// Last computed `(angle, value)` per parent texel, for every texture
/// and mip level one replay touches.
#[derive(Debug, Default)]
pub(crate) struct ParentStore {
    /// Per texture id, per mip level. Ids are dense: a scene's texture
    /// ids are the positions of its textures, which the simulator
    /// already relies on to look them up.
    index: Vec<Vec<LevelIndex>>,
    /// The blocks, [`SLAB_BLOCKS`] to a slab; slot `s` is block
    /// `s % SLAB_BLOCKS` of slab `s / SLAB_BLOCKS`.
    arena: Vec<Box<[ParentBlock]>>,
    /// Blocks allocated so far.
    blocks: usize,
}

/// Position of texel `(wx, wy)` inside its block.
fn texel_bit(wx: u32, wy: u32) -> usize {
    ((wy % BLOCK_EDGE) * BLOCK_EDGE + wx % BLOCK_EDGE) as usize
}

impl ParentStore {
    /// Arena slot of the block holding texel `(wx, wy)` of mip `level`
    /// (`width`×`height` texels) of texture `tex`, allocating an empty
    /// block on first touch. Every parent corner of a probed line ends
    /// with a stored value (reused or freshly inserted), so a block is
    /// never allocated for nothing.
    pub fn block(
        &mut self,
        tex: usize,
        level: usize,
        (width, height): (u32, u32),
        wx: u32,
        wy: u32,
    ) -> u32 {
        if self.index.len() <= tex {
            self.index.resize_with(tex + 1, Vec::new);
        }
        let levels = &mut self.index[tex];
        if levels.len() <= level {
            levels.resize_with(level + 1, LevelIndex::default);
        }
        let li = &mut levels[level];
        if li.slots.is_empty() {
            li.blocks_per_row = width.div_ceil(BLOCK_EDGE);
            let rows = height.div_ceil(BLOCK_EDGE);
            li.slots = vec![ABSENT; (li.blocks_per_row * rows) as usize];
        }
        let b = ((wy / BLOCK_EDGE) * li.blocks_per_row + wx / BLOCK_EDGE) as usize;
        if li.slots[b] == ABSENT {
            if self.blocks == self.arena.len() * SLAB_BLOCKS {
                self.arena
                    .push(vec![ParentBlock::EMPTY; SLAB_BLOCKS].into_boxed_slice());
            }
            li.slots[b] = self.blocks as u32;
            self.blocks += 1;
        }
        li.slots[b]
    }

    /// The block in arena slot `block`.
    fn slot(&self, block: u32) -> &ParentBlock {
        let s = block as usize;
        &self.arena[s / SLAB_BLOCKS][s % SLAB_BLOCKS]
    }

    /// The stored `(angle, value)` of texel `(wx, wy)` in `block`.
    pub fn get(&self, block: u32, wx: u32, wy: u32) -> Option<(Radians, Rgba)> {
        let blk = self.slot(block);
        let t = texel_bit(wx, wy);
        (blk.valid & (1 << t) != 0).then(|| (blk.angles[t], blk.values[t]))
    }

    /// Stores `(angle, value)` for texel `(wx, wy)` in `block`,
    /// replacing any earlier pair.
    pub fn insert(&mut self, block: u32, wx: u32, wy: u32, angle: Radians, value: Rgba) {
        let s = block as usize;
        let blk = &mut self.arena[s / SLAB_BLOCKS][s % SLAB_BLOCKS];
        let t = texel_bit(wx, wy);
        blk.angles[t] = angle;
        blk.values[t] = value;
        blk.valid |= 1 << t;
    }

    /// Forgets every stored pair (a fresh run).
    pub fn clear(&mut self) {
        self.index.clear();
        self.arena.clear();
        self.blocks = 0;
    }

    /// Stored texel count.
    #[cfg(test)]
    fn len(&self) -> usize {
        (0..self.blocks as u32)
            .map(|b| self.slot(b).valid.count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap;
    use pimgfx_types::TinyRng;

    /// Texture id → its mip level sizes, including levels whose sides
    /// are not multiples of the block edge.
    const TEXTURES: [(usize, &[(u32, u32)]); 3] = [
        (5, &[(24, 12), (12, 6), (6, 3), (3, 1), (1, 1)]),
        (0, &[(8, 8), (4, 4), (2, 2), (1, 1)]),
        (2, &[(17, 9), (8, 4), (4, 2), (2, 1), (1, 1)]),
    ];

    fn pick(rng: &mut TinyRng, n: u32) -> u32 {
        (rng.next_u64() % u64::from(n)) as u32
    }

    /// A coordinate in `0..n`, on the wrap edge (where partial blocks
    /// live) a quarter of the time.
    fn coord(rng: &mut TinyRng, n: u32) -> u32 {
        if rng.next_u64().is_multiple_of(4) {
            n - 1
        } else {
            pick(rng, n)
        }
    }

    /// A seeded get/insert stream against a hash-map reference model:
    /// every lookup agrees, including after overwrites and clears.
    #[test]
    fn matches_a_hash_map_model() {
        for seed in 0..8 {
            let mut rng = TinyRng::seed_from_u64(seed);
            let mut store = ParentStore::default();
            let mut model: FxHashMap<(usize, usize, u32, u32), (Radians, Rgba)> =
                FxHashMap::default();
            for step in 0..20_000 {
                let (tex, levels) = TEXTURES[pick(&mut rng, 3) as usize];
                let level = pick(&mut rng, levels.len() as u32) as usize;
                let (w, h) = levels[level];
                let (wx, wy) = (coord(&mut rng, w), coord(&mut rng, h));
                let key = (tex, level, wx, wy);
                let block = store.block(tex, level, (w, h), wx, wy);
                assert_eq!(
                    store.get(block, wx, wy),
                    model.get(&key).copied(),
                    "seed {seed} step {step} key {key:?}"
                );
                if !rng.next_u64().is_multiple_of(3) {
                    let angle = Radians::new(rng.next_f32());
                    let value = Rgba::new(rng.next_f32(), rng.next_f32(), rng.next_f32(), 1.0);
                    store.insert(block, wx, wy, angle, value);
                    model.insert(key, (angle, value));
                }
                if rng.next_u64().is_multiple_of(5_000) {
                    store.clear();
                    model.clear();
                }
            }
            assert_eq!(store.len(), model.len(), "seed {seed}");
        }
    }

    /// Blocks in later slabs keep their own values: every block of a
    /// level spanning several slabs stores and returns its texels.
    #[test]
    fn blocks_span_many_slabs() {
        let mut store = ParentStore::default();
        let (w, h) = (256u32, 64u32);
        let value = |wx: u32, wy: u32| Rgba::new(wx as f32, wy as f32, 0.0, 1.0);
        for pass in 0..2 {
            for wy in (0..h).step_by(3) {
                for wx in (0..w).step_by(3) {
                    let block = store.block(3, 1, (w, h), wx, wy);
                    if pass == 0 {
                        store.insert(block, wx, wy, Radians::new(0.5), value(wx, wy));
                    } else {
                        let got = store.get(block, wx, wy);
                        assert_eq!(got, Some((Radians::new(0.5), value(wx, wy))));
                    }
                }
            }
        }
        let blocks = ((w / BLOCK_EDGE) * (h / BLOCK_EDGE)) as usize;
        assert_eq!(store.blocks, blocks);
        assert!(store.arena.len() >= 4, "{} slabs", store.arena.len());
    }

    #[test]
    fn texels_of_one_line_share_a_block() {
        let mut store = ParentStore::default();
        let a = store.block(1, 0, (6, 3), 4, 0);
        let b = store.block(1, 0, (6, 3), 5, 2);
        let c = store.block(1, 0, (6, 3), 3, 2);
        assert_eq!(a, b, "(4..6, 0..3) is one partial block");
        assert_ne!(a, c);
        let other_level = store.block(1, 1, (3, 2), 0, 0);
        assert_ne!(other_level, a, "each level has its own blocks");
    }
}
