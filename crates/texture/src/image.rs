//! Raw texel arrays with wrap modes.

use pimgfx_types::{PackedRgba, Rgba};

/// How out-of-range texel coordinates are folded back into the texture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WrapMode {
    /// Tile the texture (fractional coordinates repeat), the common case
    /// for game surface textures.
    #[default]
    Repeat,
    /// Clamp to the edge texel.
    Clamp,
    /// Mirror every other repetition.
    Mirror,
}

impl WrapMode {
    /// Folds integer texel index `i` into `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn wrap(self, i: i64, n: u32) -> u32 {
        assert!(n > 0, "texture dimension must be nonzero");
        let n_i = i64::from(n);
        match self {
            WrapMode::Repeat => (i.rem_euclid(n_i)) as u32,
            WrapMode::Clamp => i.clamp(0, n_i - 1) as u32,
            WrapMode::Mirror => {
                let period = 2 * n_i;
                let m = i.rem_euclid(period);
                if m < n_i {
                    m as u32
                } else {
                    (period - 1 - m) as u32
                }
            }
        }
    }

    /// Folds `raw + 1` given `wrapped == wrap(raw, n)`, avoiding the
    /// `rem_euclid` division for `Repeat`: the fold is shift-equivariant
    /// under `+1`, so the successor of a wrapped index is `wrapped + 1`
    /// folded back to `0` at `n`. `Clamp` needs no division; `Mirror`
    /// reverses direction at the fold so it falls back to the full fold.
    /// Bit-identical to `wrap(raw + 1, n)` for every input.
    pub fn wrap_succ(self, wrapped: u32, raw: i64, n: u32) -> u32 {
        match self {
            WrapMode::Repeat => {
                if wrapped + 1 == n {
                    0
                } else {
                    wrapped + 1
                }
            }
            WrapMode::Clamp => (raw + 1).clamp(0, i64::from(n) - 1) as u32,
            WrapMode::Mirror => self.wrap(raw + 1, n),
        }
    }
}

/// A single level of texel data (packed RGBA).
///
/// # Examples
///
/// ```
/// use pimgfx_texture::TextureImage;
/// use pimgfx_types::Rgba;
///
/// let img = TextureImage::from_fn(4, 2, |x, y| Rgba::gray((x + y) as f32 / 8.0));
/// assert_eq!(img.width(), 4);
/// assert_eq!(img.height(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TextureImage {
    width: u32,
    height: u32,
    texels: Vec<PackedRgba>,
}

impl TextureImage {
    /// Creates an image filled with a constant color.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: u32, height: u32, color: Rgba) -> Self {
        assert!(
            width > 0 && height > 0,
            "texture dimensions must be nonzero"
        );
        Self {
            width,
            height,
            texels: vec![color.to_packed(); (width * height) as usize],
        }
    }

    /// Creates an image by evaluating `f(x, y)` for every texel.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> Rgba) -> Self {
        assert!(
            width > 0 && height > 0,
            "texture dimensions must be nonzero"
        );
        let mut texels = Vec::with_capacity((width * height) as usize);
        for y in 0..height {
            for x in 0..width {
                texels.push(f(x, y).to_packed());
            }
        }
        Self {
            width,
            height,
            texels,
        }
    }

    /// Creates an image from row-major packed texels.
    ///
    /// # Panics
    ///
    /// Panics if `texels.len() != width * height` or a dimension is zero.
    pub fn from_texels(width: u32, height: u32, texels: Vec<PackedRgba>) -> Self {
        assert!(
            width > 0 && height > 0,
            "texture dimensions must be nonzero"
        );
        assert_eq!(
            texels.len(),
            (width * height) as usize,
            "texel count must match dimensions"
        );
        Self {
            width,
            height,
            texels,
        }
    }

    /// Width in texels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in texels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total texel count.
    #[inline]
    pub fn texel_count(&self) -> usize {
        self.texels.len()
    }

    /// Reads the texel at in-range coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `x >= width` or `y >= height`.
    #[inline]
    pub fn texel(&self, x: u32, y: u32) -> Rgba {
        assert!(
            x < self.width && y < self.height,
            "texel ({x},{y}) out of range"
        );
        self.texels[(y * self.width + x) as usize].to_rgba()
    }

    /// Reads the 2×2 texel block anchored at `(x, y)` in row-major order
    /// `[t00, t10, t01, t11]`. The block must be fully interior
    /// (`x + 1 < width`, `y + 1 < height`); the bilinear kernel checks
    /// that before taking this path.
    ///
    /// # Panics
    ///
    /// Panics if the block reaches outside the image.
    #[inline]
    pub fn gather2x2(&self, x: u32, y: u32) -> [Rgba; 4] {
        debug_assert!(x + 1 < self.width && y + 1 < self.height);
        let w = self.width as usize;
        let i = y as usize * w + x as usize;
        [
            self.texels[i].to_rgba(),
            self.texels[i + 1].to_rgba(),
            self.texels[i + w].to_rgba(),
            self.texels[i + w + 1].to_rgba(),
        ]
    }

    /// Row `y` of packed texels.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub(crate) fn row(&self, y: u32) -> &[PackedRgba] {
        let w = self.width as usize;
        &self.texels[y as usize * w..][..w]
    }

    /// Reads a texel with signed coordinates folded by `wrap`.
    #[inline]
    pub fn texel_wrapped(&self, x: i64, y: i64, wrap: WrapMode) -> Rgba {
        let wx = wrap.wrap(x, self.width);
        let wy = wrap.wrap(y, self.height);
        self.texels[(wy * self.width + wx) as usize].to_rgba()
    }

    /// Iterates over texels row-major as packed values.
    pub fn iter(&self) -> impl Iterator<Item = PackedRgba> + '_ {
        self.texels.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_wrap_tiles() {
        let w = WrapMode::Repeat;
        assert_eq!(w.wrap(0, 4), 0);
        assert_eq!(w.wrap(4, 4), 0);
        assert_eq!(w.wrap(-1, 4), 3);
        assert_eq!(w.wrap(9, 4), 1);
    }

    #[test]
    fn clamp_wrap_pins_edges() {
        let w = WrapMode::Clamp;
        assert_eq!(w.wrap(-5, 4), 0);
        assert_eq!(w.wrap(3, 4), 3);
        assert_eq!(w.wrap(100, 4), 3);
    }

    #[test]
    fn mirror_wrap_reflects() {
        let w = WrapMode::Mirror;
        // indices: 0 1 2 3 | 3 2 1 0 | 0 1 2 3 ...
        assert_eq!(w.wrap(3, 4), 3);
        assert_eq!(w.wrap(4, 4), 3);
        assert_eq!(w.wrap(7, 4), 0);
        assert_eq!(w.wrap(8, 4), 0);
        assert_eq!(w.wrap(-1, 4), 0);
        assert_eq!(w.wrap(-4, 4), 3);
    }

    #[test]
    fn from_fn_is_row_major() {
        let img = TextureImage::from_fn(2, 2, |x, y| Rgba::gray((x + 2 * y) as f32 / 4.0));
        assert_eq!(img.texel(1, 0).to_packed().r, 64);
        assert_eq!(img.texel(0, 1).to_packed().r, 128);
    }

    #[test]
    fn texel_wrapped_uses_mode() {
        let img = TextureImage::from_fn(2, 1, |x, _| Rgba::gray(x as f32));
        let edge = img.texel_wrapped(5, 0, WrapMode::Clamp);
        assert_eq!(edge.to_packed(), img.texel(1, 0).to_packed());
        let tiled = img.texel_wrapped(2, 0, WrapMode::Repeat);
        assert_eq!(tiled.to_packed(), img.texel(0, 0).to_packed());
    }

    #[test]
    #[should_panic(expected = "texel count")]
    fn from_texels_checks_length() {
        let _ = TextureImage::from_texels(2, 2, vec![PackedRgba::default(); 3]);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        let _ = TextureImage::filled(0, 4, Rgba::BLACK);
    }
}
