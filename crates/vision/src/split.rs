//! Geometric domain decomposition for the `scm` skeleton.
//!
//! The `scm` (Split/Compute/Merge) skeleton needs pure split and merge
//! functions over iconic data. This module provides the standard row-band
//! and tile decompositions, with optional halo (overlap) rows for
//! neighbourhood operators, plus the inverse merge operations.
//!
//! Decomposition is **zero-copy**: a [`RowBandView`] is a `(row range,
//! stride)` window over the parent frame's shared buffer — splitting a 4K
//! frame into bands moves refcounts, never pixels. Row bands are full
//! width, so their windows are contiguous and usable as ordinary
//! [`Image`]s directly; tiles ([`TileView`]) are strided and expose
//! borrowed per-row slices, with a pooled staging copy
//! ([`TileView::materialize`]) for consumers that need contiguous pixels.
//! The merges assemble their output by row-range writes into one arena
//! lease (see [`crate::arena`]).

use crate::Image;

/// A zero-copy horizontal band of a frame: the `(range, stride)` window
/// `y0 - halo_top .. y0 + rows + halo_bottom` of the parent image, sharing
/// its buffer. Produced by [`split_rows_view`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowBandView {
    /// Index of the band in the decomposition.
    pub index: usize,
    /// First row of the *core* region in the source image.
    pub y0: usize,
    /// Number of core rows (excluding halo).
    pub rows: usize,
    /// Number of halo rows included above the core.
    pub halo_top: usize,
    /// Number of halo rows included below the core.
    pub halo_bottom: usize,
    frame: Image<u8>,
}

impl RowBandView {
    /// The parent frame this band windows (shared, not copied).
    pub fn frame(&self) -> &Image<u8> {
        &self.frame
    }

    /// Start row and row count of the window (halos included) in the
    /// parent frame.
    pub fn range(&self) -> (usize, usize) {
        (
            self.y0 - self.halo_top,
            self.halo_top + self.rows + self.halo_bottom,
        )
    }

    /// Row stride of the window in pixels (the parent frame's width —
    /// bands are full width, hence contiguous).
    pub fn stride(&self) -> usize {
        self.frame.width()
    }

    /// The band's pixels, halos included, as a zero-copy [`Image`] view
    /// sharing the parent buffer.
    pub fn window(&self) -> Image<u8> {
        let (start, rows) = self.range();
        self.frame.view_rows(start, rows)
    }

    /// The core rows only (halos dropped), as a zero-copy view.
    pub fn core(&self) -> Image<u8> {
        self.frame.view_rows(self.y0, self.rows)
    }

    /// Converts into the owned-band representation used at skeleton stage
    /// boundaries; the pixels remain a shared view.
    pub fn into_band(self) -> RowBand {
        let pixels = self.window();
        RowBand {
            index: self.index,
            y0: self.y0,
            rows: self.rows,
            halo_top: self.halo_top,
            halo_bottom: self.halo_bottom,
            pixels,
        }
    }
}

/// A horizontal band of an image produced by [`split_rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowBand {
    /// Index of the band in the decomposition.
    pub index: usize,
    /// First row of the *core* region in the source image.
    pub y0: usize,
    /// Number of core rows (excluding halo).
    pub rows: usize,
    /// Number of halo rows included above the core.
    pub halo_top: usize,
    /// Number of halo rows included below the core.
    pub halo_bottom: usize,
    /// Pixels: halo_top + rows + halo_bottom rows of the full width — a
    /// zero-copy view sharing the source frame's buffer.
    pub pixels: Image<u8>,
}

impl RowBand {
    /// Extracts the core rows (dropping halos) from a processed band image
    /// that has the same shape as `pixels`, as a zero-copy view of it.
    ///
    /// # Panics
    ///
    /// Panics if `processed` does not have the band's dimensions.
    pub fn core_of(&self, processed: &Image<u8>) -> Image<u8> {
        assert_eq!(
            processed.dimensions(),
            self.pixels.dimensions(),
            "processed band must keep the band shape"
        );
        processed.view_rows(self.halo_top, self.rows)
    }
}

/// Splits `img` into `n` zero-copy horizontal band views with `halo` rows
/// of overlap on each internal boundary. No pixels are copied: each view
/// shares `img`'s buffer.
///
/// Every row of the image belongs to exactly one band core; halos replicate
/// rows from neighbouring bands so that 2-D neighbourhood operators can be
/// applied independently per band.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn split_rows_view(img: &Image<u8>, n: usize, halo: usize) -> Vec<RowBandView> {
    assert!(n > 0, "cannot split into zero bands");
    let h = img.height();
    let n = n.min(h.max(1));
    let base = h / n;
    let rem = h % n;
    let mut bands = Vec::with_capacity(n);
    let mut y0 = 0usize;
    for i in 0..n {
        let rows = base + usize::from(i < rem);
        let halo_top = halo.min(y0);
        let halo_bottom = halo.min(h - (y0 + rows));
        bands.push(RowBandView {
            index: i,
            y0,
            rows,
            halo_top,
            halo_bottom,
            frame: img.clone(),
        });
        y0 += rows;
    }
    bands
}

/// Splits `img` into `n` horizontal bands with `halo` rows of overlap on
/// each internal boundary. Band pixels are zero-copy views of `img` (see
/// [`split_rows_view`] for the underlying window arithmetic).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn split_rows(img: &Image<u8>, n: usize, halo: usize) -> Vec<RowBand> {
    split_rows_view(img, n, halo)
        .into_iter()
        .map(RowBandView::into_band)
        .collect()
}

/// Reassembles the full image from per-band *core* images (halos already
/// stripped), in band order, by row-range writes into one arena lease.
///
/// # Panics
///
/// Panics if the cores disagree on width or if the band metadata does not
/// tile the output contiguously.
pub fn merge_rows(cores: &[(RowBand, Image<u8>)]) -> Image<u8> {
    if cores.is_empty() {
        return Image::new(0, 0);
    }
    let width = cores[0].1.width();
    let total_rows: usize = cores.iter().map(|(b, _)| b.rows).sum();
    // Full-coverage lease: the contiguous-tiling asserts below guarantee
    // every output row is written, so the recycled buffer needs no reset.
    Image::leased_full(width, total_rows, |out| {
        let mut expected_y = 0usize;
        for (band, core) in cores {
            assert_eq!(core.width(), width, "band widths must agree");
            assert_eq!(core.height(), band.rows, "core must have band.rows rows");
            assert_eq!(band.y0, expected_y, "bands must tile contiguously");
            for (r, row) in core.rows().enumerate() {
                let d = (band.y0 + r) * width;
                out[d..d + width].copy_from_slice(row);
            }
            expected_y += band.rows;
        }
    })
}

/// A zero-copy rectangular tile of a frame: a *strided* `(range, stride)`
/// window over the parent buffer. Unlike row bands, tiles are narrower
/// than the frame, so their rows are not contiguous in memory; consumers
/// either iterate [`TileView::rows`] or stage a contiguous copy into a
/// pooled buffer with [`TileView::materialize`].
#[derive(Debug, Clone, PartialEq)]
pub struct TileView {
    /// Tile column index.
    pub tx: usize,
    /// Tile row index.
    pub ty: usize,
    /// Left edge in the source image.
    pub x0: usize,
    /// Top edge in the source image.
    pub y0: usize,
    /// Tile width in pixels.
    pub w: usize,
    /// Tile height in pixels.
    pub h: usize,
    frame: Image<u8>,
}

impl TileView {
    /// The parent frame this tile windows (shared, not copied).
    pub fn frame(&self) -> &Image<u8> {
        &self.frame
    }

    /// Row stride of the window in pixels (the parent frame's width).
    pub fn stride(&self) -> usize {
        self.frame.width()
    }

    /// Iterator over the tile's rows, each a `w`-long slice borrowed from
    /// the parent frame.
    pub fn rows(&self) -> impl Iterator<Item = &[u8]> {
        let stride = self.frame.width();
        let s = self.frame.as_slice();
        let (x0, w) = (self.x0, self.w);
        (0..self.h).map(move |r| {
            let start = (self.y0 + r) * stride + x0;
            &s[start..start + w]
        })
    }

    /// Stages the tile into a contiguous image leased from the frame
    /// arena — the fallback for neighbourhood ops that need flat pixels.
    pub fn materialize(&self) -> Image<u8> {
        let w = self.w;
        Image::leased_full(w, self.h, |buf| {
            for (r, row) in self.rows().enumerate() {
                buf[r * w..(r + 1) * w].copy_from_slice(row);
            }
        })
    }
}

/// A rectangular tile of an image produced by [`split_tiles`].
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    /// Tile column index.
    pub tx: usize,
    /// Tile row index.
    pub ty: usize,
    /// Left edge in the source image.
    pub x0: usize,
    /// Top edge in the source image.
    pub y0: usize,
    /// Pixels.
    pub pixels: Image<u8>,
}

/// Splits `img` into a `cols × rows` grid of zero-copy tile views covering
/// the image; edge tiles absorb the remainders.
///
/// # Panics
///
/// Panics if `cols == 0 || rows == 0`.
pub fn split_tiles_view(img: &Image<u8>, cols: usize, rows: usize) -> Vec<TileView> {
    assert!(cols > 0 && rows > 0, "grid must be non-empty");
    let (w, h) = img.dimensions();
    let cols = cols.min(w.max(1));
    let rows = rows.min(h.max(1));
    let tw = w / cols;
    let th = h / rows;
    let mut tiles = Vec::with_capacity(cols * rows);
    for ty in 0..rows {
        for tx in 0..cols {
            let x0 = tx * tw;
            let y0 = ty * th;
            let cw = if tx == cols - 1 { w - x0 } else { tw };
            let ch = if ty == rows - 1 { h - y0 } else { th };
            tiles.push(TileView {
                tx,
                ty,
                x0,
                y0,
                w: cw,
                h: ch,
                frame: img.clone(),
            });
        }
    }
    tiles
}

/// Splits `img` into a `cols × rows` grid of tiles covering the image;
/// edge tiles absorb the remainders. Tiles are strided windows of the
/// frame staged into pooled contiguous buffers (see [`split_tiles_view`]
/// to keep them as borrowed views).
///
/// # Panics
///
/// Panics if `cols == 0 || rows == 0`.
pub fn split_tiles(img: &Image<u8>, cols: usize, rows: usize) -> Vec<Tile> {
    split_tiles_view(img, cols, rows)
        .into_iter()
        .map(|v| Tile {
            tx: v.tx,
            ty: v.ty,
            x0: v.x0,
            y0: v.y0,
            pixels: v.materialize(),
        })
        .collect()
}

/// Reassembles an image from tiles produced by [`split_tiles`] (possibly
/// processed pixel-wise, i.e. keeping their dimensions), writing row
/// ranges into one arena lease.
pub fn merge_tiles(width: usize, height: usize, tiles: &[Tile]) -> Image<u8> {
    Image::leased(width, height, |out| {
        for t in tiles {
            let w = t.pixels.width().min(width.saturating_sub(t.x0));
            let h = t.pixels.height().min(height.saturating_sub(t.y0));
            for (r, row) in t.pixels.rows().take(h).enumerate() {
                let d = (t.y0 + r) * width + t.x0;
                out[d..d + w].copy_from_slice(&row[..w]);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(w: usize, h: usize) -> Image<u8> {
        Image::from_fn(w, h, |x, y| ((x * 7 + y * 13) % 251) as u8)
    }

    #[test]
    fn split_merge_rows_roundtrip_no_halo() {
        let img = ramp(17, 23);
        let bands = split_rows(&img, 4, 0);
        assert_eq!(bands.len(), 4);
        let cores: Vec<_> = bands
            .iter()
            .map(|b| (b.clone(), b.pixels.clone()))
            .collect();
        assert_eq!(merge_rows(&cores), img);
    }

    #[test]
    fn split_merge_rows_roundtrip_with_halo() {
        let img = ramp(16, 16);
        let bands = split_rows(&img, 3, 2);
        let cores: Vec<_> = bands
            .iter()
            .map(|b| (b.clone(), b.core_of(&b.pixels)))
            .collect();
        assert_eq!(merge_rows(&cores), img);
    }

    #[test]
    fn halo_limits_at_borders() {
        let img = ramp(8, 12);
        let bands = split_rows(&img, 3, 5);
        assert_eq!(bands[0].halo_top, 0);
        assert_eq!(bands[2].halo_bottom, 0);
        assert!(bands[1].halo_top > 0 && bands[1].halo_bottom > 0);
    }

    #[test]
    fn rows_distributed_evenly() {
        let img = ramp(4, 10);
        let bands = split_rows(&img, 4, 0);
        let rows: Vec<_> = bands.iter().map(|b| b.rows).collect();
        assert_eq!(rows, vec![3, 3, 2, 2]);
        assert_eq!(rows.iter().sum::<usize>(), 10);
    }

    #[test]
    fn more_bands_than_rows() {
        let img = ramp(4, 2);
        let bands = split_rows(&img, 8, 0);
        assert_eq!(bands.len(), 2);
    }

    #[test]
    fn split_rows_is_zero_copy() {
        let img = ramp(32, 16);
        for band in split_rows(&img, 4, 2) {
            assert!(band.pixels.shares_buffer_with(&img), "band {}", band.index);
        }
        for view in split_rows_view(&img, 4, 2) {
            assert!(view.window().shares_buffer_with(&img));
            assert!(view.core().shares_buffer_with(&img));
        }
    }

    #[test]
    fn band_views_match_a_copied_crop() {
        let img = ramp(9, 14);
        for (n, halo) in [(1, 0), (3, 1), (4, 3), (14, 2)] {
            for v in split_rows_view(&img, n, halo) {
                let (start, rows) = v.range();
                assert_eq!(v.stride(), img.width());
                assert_eq!(v.window(), img.crop(0, start, img.width(), rows));
                assert_eq!(v.core(), img.crop(0, v.y0, img.width(), v.rows));
            }
        }
    }

    #[test]
    fn zero_height_image_splits_into_one_empty_band() {
        let img = Image::<u8>::new(7, 0);
        let bands = split_rows(&img, 4, 2);
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].rows, 0);
        assert_eq!(bands[0].halo_top, 0);
        assert_eq!(bands[0].halo_bottom, 0);
        assert!(bands[0].pixels.is_empty());
        let cores: Vec<_> = bands
            .iter()
            .map(|b| (b.clone(), b.pixels.clone()))
            .collect();
        let merged = merge_rows(&cores);
        assert_eq!(merged.dimensions(), (7, 0));
    }

    #[test]
    fn one_row_image_with_oversized_halo() {
        let img = ramp(5, 1);
        let bands = split_rows(&img, 3, 4);
        assert_eq!(bands.len(), 1, "clamped to the row count");
        let b = &bands[0];
        assert_eq!((b.halo_top, b.rows, b.halo_bottom), (0, 1, 0));
        assert_eq!(b.pixels, img);
    }

    #[test]
    fn halo_larger_than_band_clamps_to_the_frame() {
        let img = ramp(6, 8);
        let bands = split_rows(&img, 4, 100);
        for b in &bands {
            assert_eq!(b.halo_top, b.y0, "halo reaches the top edge");
            assert_eq!(b.halo_bottom, img.height() - (b.y0 + b.rows));
            assert_eq!(b.pixels.height(), img.height(), "window spans the frame");
            assert_eq!(b.core_of(&b.pixels), img.crop(0, b.y0, 6, b.rows));
        }
        let cores: Vec<_> = bands
            .iter()
            .map(|b| (b.clone(), b.core_of(&b.pixels)))
            .collect();
        assert_eq!(merge_rows(&cores), img);
    }

    #[test]
    fn split_merge_tiles_roundtrip() {
        let img = ramp(19, 11);
        let tiles = split_tiles(&img, 3, 2);
        assert_eq!(tiles.len(), 6);
        assert_eq!(merge_tiles(19, 11, &tiles), img);
    }

    #[test]
    fn tiles_have_expected_origins() {
        let img = ramp(12, 12);
        let tiles = split_tiles(&img, 2, 2);
        let origins: Vec<_> = tiles.iter().map(|t| (t.x0, t.y0)).collect();
        assert_eq!(origins, vec![(0, 0), (6, 0), (0, 6), (6, 6)]);
    }

    #[test]
    fn tile_views_borrow_rows_and_materialize_equal() {
        let img = ramp(10, 6);
        for v in split_tiles_view(&img, 3, 2) {
            let staged = v.materialize();
            assert_eq!(staged, img.crop(v.x0, v.y0, v.w, v.h));
            let flat: Vec<u8> = v.rows().flatten().copied().collect();
            assert_eq!(flat, staged.as_slice());
            assert_eq!(v.stride(), img.width());
        }
    }

    #[test]
    #[should_panic(expected = "zero bands")]
    fn zero_bands_panics() {
        let _ = split_rows(&ramp(4, 4), 0, 0);
    }

    #[test]
    fn merge_rows_empty_is_empty_image() {
        assert!(merge_rows(&[]).is_empty());
    }
}
