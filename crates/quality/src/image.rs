//! Rendered frame images and PPM I/O.

use pimgfx_types::{PackedRgba, Rgba};
use std::io::{self, Write};
use std::path::Path;

/// A rendered frame: a dense RGBA pixel grid.
///
/// # Examples
///
/// ```
/// use pimgfx_quality::FrameImage;
/// use pimgfx_types::Rgba;
///
/// let mut img = FrameImage::filled(4, 4, Rgba::BLACK);
/// img.put(1, 2, Rgba::WHITE);
/// assert_eq!(img.pixel(1, 2).to_rgba().r, 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrameImage {
    width: u32,
    height: u32,
    pixels: Vec<PackedRgba>,
}

impl FrameImage {
    /// Creates a frame filled with a constant color.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: u32, height: u32, color: Rgba) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be nonzero");
        Self {
            width,
            height,
            pixels: vec![color.to_packed(); (width * height) as usize],
        }
    }

    /// Creates a frame by evaluating `f(x, y)` per pixel.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> Rgba) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be nonzero");
        let mut pixels = Vec::with_capacity((width * height) as usize);
        for y in 0..height {
            for x in 0..width {
                pixels.push(f(x, y).to_packed());
            }
        }
        Self {
            width,
            height,
            pixels,
        }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Reads pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn pixel(&self, x: u32, y: u32) -> PackedRgba {
        assert!(x < self.width && y < self.height, "pixel read out of range");
        self.pixels[(y * self.width + x) as usize]
    }

    /// Writes pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn put(&mut self, x: u32, y: u32, color: Rgba) {
        assert!(
            x < self.width && y < self.height,
            "pixel write out of range"
        );
        self.pixels[(y * self.width + x) as usize] = color.to_packed();
    }

    /// Overwrites every pixel with `color`, keeping the allocation —
    /// the per-frame clear of a replay loop.
    pub fn fill(&mut self, color: Rgba) {
        self.pixels.fill(color.to_packed());
    }

    /// Iterates over pixels row-major.
    pub fn iter(&self) -> impl Iterator<Item = PackedRgba> + '_ {
        self.pixels.iter().copied()
    }

    /// Serializes the frame as binary PPM (P6, RGB — alpha dropped).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`.
    pub fn write_ppm<W: Write>(&self, w: W) -> io::Result<()> {
        let mut w = io::BufWriter::new(w);
        write!(w, "P6\n{} {}\n255\n", self.width, self.height)?;
        for p in &self.pixels {
            w.write_all(&[p.r, p.g, p.b])?;
        }
        w.flush()
    }

    /// Writes the frame to a `.ppm` file.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn save_ppm(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let f = std::fs::File::create(path)?;
        self.write_ppm(f)
    }

    /// Mean luminance in `[0, 1]` (Rec. 601 weights), a sanity check
    /// that a rendered frame is not black.
    pub fn mean_luma(&self) -> f64 {
        let sum: f64 = self
            .pixels
            .iter()
            .map(|p| 0.299 * f64::from(p.r) + 0.587 * f64::from(p.g) + 0.114 * f64::from(p.b))
            // float:reassoc-ok — serial sum in pixel order: the order
            // fixes the rounding, so the result is bit-reproducible.
            .sum();
        sum / (self.pixels.len() as f64 * 255.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_row_major() {
        let img = FrameImage::from_fn(2, 2, |x, y| Rgba::gray((x + 2 * y) as f32 / 3.0));
        assert_eq!(img.pixel(0, 0).r, 0);
        assert_eq!(img.pixel(1, 1).r, 255);
    }

    #[test]
    fn put_and_read_back() {
        let mut img = FrameImage::filled(3, 3, Rgba::BLACK);
        img.put(2, 0, Rgba::new(1.0, 0.0, 0.0, 1.0));
        assert_eq!(img.pixel(2, 0).r, 255);
        assert_eq!(img.pixel(2, 0).g, 0);
    }

    #[test]
    fn ppm_header_and_size() {
        let img = FrameImage::filled(4, 2, Rgba::WHITE);
        let mut buf = Vec::new();
        img.write_ppm(&mut buf).expect("in-memory write");
        let header = b"P6\n4 2\n255\n";
        assert!(buf.starts_with(header));
        assert_eq!(buf.len(), header.len() + 4 * 2 * 3);
        assert!(buf[header.len()..].iter().all(|&b| b == 255));
    }

    #[test]
    fn mean_luma_of_extremes() {
        assert!(FrameImage::filled(2, 2, Rgba::BLACK).mean_luma() < 1e-9);
        assert!((FrameImage::filled(2, 2, Rgba::WHITE).mean_luma() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let img = FrameImage::filled(2, 2, Rgba::BLACK);
        let _ = img.pixel(2, 0);
    }
}
