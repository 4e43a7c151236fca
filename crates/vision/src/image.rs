//! Dense row-major raster images over shared, copy-on-write storage.
//!
//! An [`Image`] is a `(width, height)` window into an [`Arc`]-shared
//! row-major pixel buffer. `Clone` bumps a refcount instead of copying
//! pixels, [`Image::view_rows`] carves zero-copy row-range windows out of a
//! frame (the basis of the banded decomposition in [`crate::split`]), and
//! the rare in-place mutators go through a `make_mut`-style fast path that
//! only materialises a private copy when the buffer is actually shared.
//!
//! Every fresh pixel-buffer allocation (and only those — clones, views and
//! arena reuse are free) bumps the process-global [`pixel_alloc_count`]
//! probe, which the steady-state allocation tests pin to zero. Unit
//! tests read the allocating thread's own count instead, so that tests
//! running in parallel cannot bleed into each other's deltas.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-global count of fresh pixel-buffer allocations.
static PIXEL_ALLOCS: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// This thread's share of [`PIXEL_ALLOCS`].
    static THREAD_PIXEL_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of fresh pixel-buffer heap allocations made by this crate since
/// process start: `Image::new`/`from_fn`/`from_raw`/`crop`/`map`, a
/// copy-on-write materialisation, or an arena miss. Clones, row views and
/// arena-recycled leases do **not** count. Monotone; probe tests snapshot
/// it before and after a steady-state run and assert a zero delta.
pub fn pixel_alloc_count() -> u64 {
    PIXEL_ALLOCS.load(Ordering::Relaxed)
}

/// The calling thread's share of [`pixel_alloc_count`]: what unit-test
/// deltas read, since sibling tests allocate on other threads.
#[cfg(test)]
pub(crate) fn thread_pixel_alloc_count() -> u64 {
    THREAD_PIXEL_ALLOCS.with(std::cell::Cell::get)
}

/// Records one fresh pixel-buffer allocation (no-op for empty buffers,
/// which `Vec` never heap-allocates).
pub(crate) fn note_pixel_alloc(len: usize) {
    if len > 0 {
        PIXEL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        THREAD_PIXEL_ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

/// A dense, row-major 2-D raster of pixels of type `T`.
///
/// `Image<u8>` is the workhorse grey-level type used throughout the SKiPPER
/// applications; `Image<u32>` holds label maps, `Image<i32>` gradient maps.
///
/// Storage is `Arc`-shared: `Clone` shares the buffer (refcount bump, no
/// pixel copy) and in-place mutation is copy-on-write. An image may be a
/// *view* — a contiguous full-width row window into a larger parent buffer
/// (see [`Image::view_rows`]); equality, hashing and `as_slice` all operate
/// on the window, so views are indistinguishable from owned images.
///
/// # Example
///
/// ```
/// use skipper_vision::Image;
/// let mut img = Image::<u8>::new(8, 4);
/// img.set(3, 2, 200);
/// assert_eq!(img.get(3, 2), 200);
/// assert_eq!(img.width(), 8);
/// assert_eq!(img.height(), 4);
/// ```
#[derive(Clone)]
pub struct Image<T = u8> {
    width: usize,
    height: usize,
    /// Start of this window in `data` (always a whole-row boundary).
    offset: usize,
    /// Shared row-major storage; may extend beyond the window.
    data: Arc<Vec<T>>,
}

impl<T: fmt::Debug> fmt::Debug for Image<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Image")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("pixels", &(self.width * self.height))
            .finish()
    }
}

impl<T: PartialEq> PartialEq for Image<T> {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
            && self.height == other.height
            && ((Arc::ptr_eq(&self.data, &other.data) && self.offset == other.offset)
                || self.as_slice() == other.as_slice())
    }
}

impl<T: Eq> Eq for Image<T> {}

impl<T: std::hash::Hash> std::hash::Hash for Image<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.height.hash(state);
        self.as_slice().hash(state);
    }
}

impl<T: Copy + Default> Image<T> {
    /// Creates a `width × height` image filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` overflows `usize`.
    pub fn new(width: usize, height: usize) -> Self {
        let len = width
            .checked_mul(height)
            .expect("image dimensions overflow");
        note_pixel_alloc(len);
        Image {
            width,
            height,
            offset: 0,
            data: Arc::new(vec![T::default(); len]),
        }
    }

    /// Creates an image whose pixel at `(x, y)` is `f(x, y)`, filling the
    /// buffer row by row.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let len = width
            .checked_mul(height)
            .expect("image dimensions overflow");
        note_pixel_alloc(len);
        let mut data = Vec::with_capacity(len);
        for y in 0..height {
            data.extend((0..width).map(|x| f(x, y)));
        }
        Image {
            width,
            height,
            offset: 0,
            data: Arc::new(data),
        }
    }

    /// Extracts a copy of the rectangular window starting at `(x0, y0)`.
    ///
    /// The window is clipped against the image bounds, so the returned image
    /// may be smaller than `w × h` (and may be empty). The copy is row-wise
    /// (`copy_from_slice` per row) and always owns a fresh buffer; for a
    /// zero-copy full-width row window use [`Image::view_rows`], and for a
    /// pooled copy on a hot path use [`Image::crop_leased`].
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> Image<T> {
        let x1 = (x0 + w).min(self.width);
        let y1 = (y0 + h).min(self.height);
        let (cw, ch) = (x1.saturating_sub(x0), y1.saturating_sub(y0));
        note_pixel_alloc(cw * ch);
        let src = self.as_slice();
        let mut data = Vec::with_capacity(cw * ch);
        for y in 0..ch {
            let s = (y0 + y) * self.width + x0;
            data.extend_from_slice(&src[s..s + cw]);
        }
        Image {
            width: cw,
            height: ch,
            offset: 0,
            data: Arc::new(data),
        }
    }

    /// An owned copy of this image's pixels in a fresh private buffer.
    /// `clone()` shares storage (refcount bump); `deep_clone` never does —
    /// it is the explicit copy the pre-Arc `clone()` used to be.
    pub fn deep_clone(&self) -> Image<T> {
        let len = self.width * self.height;
        note_pixel_alloc(len);
        Image {
            width: self.width,
            height: self.height,
            offset: 0,
            data: Arc::new(self.as_slice().to_vec()),
        }
    }

    /// Fills the (clipped) rectangle with `value`.
    pub fn fill_rect(&mut self, x0: usize, y0: usize, w: usize, h: usize, value: T) {
        let x1 = (x0 + w).min(self.width);
        let y1 = (y0 + h).min(self.height);
        let width = self.width;
        let buf = self.as_mut_slice();
        for y in y0..y1 {
            buf[y * width + x0..y * width + x1].fill(value);
        }
    }
}

impl<T> Image<T> {
    /// Creates an image from raw row-major pixel data, adopting the buffer
    /// without copying it.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_raw(width: usize, height: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            width * height,
            "pixel buffer length must equal width * height"
        );
        note_pixel_alloc(data.len());
        Image {
            width,
            height,
            offset: 0,
            data: Arc::new(data),
        }
    }

    /// Wraps an already-shared buffer (an arena lease) without copying or
    /// counting an allocation. The buffer must hold exactly the window.
    pub(crate) fn from_shared(width: usize, height: usize, data: Arc<Vec<T>>) -> Self {
        assert_eq!(
            data.len(),
            width * height,
            "shared pixel buffer length must equal width * height"
        );
        Image {
            width,
            height,
            offset: 0,
            data,
        }
    }

    /// A zero-copy view of `rows` full-width rows starting at `y0`: the
    /// returned image shares this image's buffer (no pixels move) and
    /// behaves exactly like an owned `width × rows` image. Mutating the
    /// view copies it out first (copy-on-write), leaving the parent intact.
    ///
    /// # Panics
    ///
    /// Panics if `y0 + rows > height`.
    pub fn view_rows(&self, y0: usize, rows: usize) -> Image<T> {
        assert!(
            y0 + rows <= self.height,
            "row view {y0}..{} out of bounds for height {}",
            y0 + rows,
            self.height
        );
        Image {
            width: self.width,
            height: rows,
            offset: self.offset + y0 * self.width,
            data: Arc::clone(&self.data),
        }
    }

    /// `true` when both images window the same underlying buffer — i.e.
    /// one is a clone or [`Image::view_rows`] view of the other. Used by
    /// tests to assert a path is zero-copy.
    pub fn shares_buffer_with(&self, other: &Image<T>) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of pixels (`width * height`).
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// `true` when the image holds no pixels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the raw row-major pixel buffer (this image's window of it).
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.offset..self.offset + self.width * self.height]
    }

    /// Borrow row `y` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    pub fn row(&self, y: usize) -> &[T] {
        assert!(y < self.height, "row {y} out of bounds");
        let start = self.offset + y * self.width;
        &self.data[start..start + self.width]
    }

    /// Iterator over the rows of the image, top to bottom, each as a
    /// `width`-long slice. Zero-width images yield no rows.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> {
        self.as_slice()
            .chunks_exact(self.width.max(1))
            .take(self.height)
    }

    /// Iterator over `(x, y, &pixel)` in row-major order.
    pub fn enumerate_pixels(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        let w = self.width;
        self.as_slice()
            .iter()
            .enumerate()
            .map(move |(i, p)| (i % w, i / w, p))
    }

    /// Returns `true` when `(x, y)` lies inside the image.
    pub fn contains(&self, x: usize, y: usize) -> bool {
        x < self.width && y < self.height
    }
}

impl<T: Clone> Image<T> {
    /// Mutably borrow the raw row-major pixel buffer, copying it out of
    /// shared storage first if anything else still references it
    /// (copy-on-write). Uniquely-owned images — including fresh leases —
    /// mutate in place.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        let len = self.width * self.height;
        if Arc::get_mut(&mut self.data).is_none() {
            note_pixel_alloc(len);
            let owned = self.as_slice().to_vec();
            self.offset = 0;
            self.data = Arc::new(owned);
        }
        let offset = self.offset;
        let buf = Arc::get_mut(&mut self.data).expect("buffer unique after materialise");
        &mut buf[offset..offset + len]
    }

    /// Iterator over mutable rows, top to bottom (copy-on-write like
    /// [`Image::as_mut_slice`]). Zero-width images yield no rows.
    pub fn rows_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        let w = self.width.max(1);
        let h = self.height;
        self.as_mut_slice().chunks_exact_mut(w).take(h)
    }

    /// Consumes the image, returning the raw pixel buffer (reusing the
    /// shared buffer when this was its last reference, copying otherwise).
    pub fn into_raw(self) -> Vec<T> {
        let len = self.width * self.height;
        if self.offset == 0 {
            match Arc::try_unwrap(self.data) {
                Ok(mut v) => {
                    v.truncate(len);
                    return v;
                }
                Err(shared) => {
                    note_pixel_alloc(len);
                    return shared[..len].to_vec();
                }
            }
        }
        note_pixel_alloc(len);
        self.data[self.offset..self.offset + len].to_vec()
    }
}

impl<T: Copy> Image<T> {
    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        assert!(self.contains(x, y), "pixel ({x},{y}) out of bounds");
        self.data[self.offset + y * self.width + x]
    }

    /// Pixel value at `(x, y)`, or `None` when out of bounds.
    #[inline]
    pub fn try_get(&self, x: usize, y: usize) -> Option<T> {
        if self.contains(x, y) {
            Some(self.data[self.offset + y * self.width + x])
        } else {
            None
        }
    }

    /// Sets the pixel at `(x, y)` (copy-on-write if the buffer is shared).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: T) {
        assert!(self.contains(x, y), "pixel ({x},{y}) out of bounds");
        let w = self.width;
        self.as_mut_slice()[y * w + x] = value;
    }

    /// Fills every pixel with `value`.
    pub fn fill(&mut self, value: T) {
        self.as_mut_slice().fill(value);
    }

    /// Applies `f` to every pixel, producing a new image of the same size.
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> Image<U> {
        let len = self.width * self.height;
        note_pixel_alloc(len);
        Image {
            width: self.width,
            height: self.height,
            offset: 0,
            data: Arc::new(self.as_slice().iter().map(|&p| f(p)).collect()),
        }
    }

    /// Pastes `src` into `self` with its top-left corner at `(x0, y0)`,
    /// clipping against the bounds of `self`.
    pub fn blit(&mut self, src: &Image<T>, x0: usize, y0: usize) {
        let w = src.width.min(self.width.saturating_sub(x0));
        let h = src.height.min(self.height.saturating_sub(y0));
        let dst_w = self.width;
        let dst = self.as_mut_slice();
        for y in 0..h {
            let s = src.row(y);
            let d = (y0 + y) * dst_w + x0;
            dst[d..d + w].copy_from_slice(&s[..w]);
        }
    }
}

impl Image<u8> {
    /// Mean pixel value; 0.0 for an empty image.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.as_slice().iter().map(|&p| p as u64).sum::<u64>() as f64 / self.len() as f64
    }

    /// Maximum pixel value; 0 for an empty image.
    pub fn max(&self) -> u8 {
        self.as_slice().iter().copied().max().unwrap_or(0)
    }

    /// Number of pixels strictly above `thr`.
    pub fn count_above(&self, thr: u8) -> usize {
        self.as_slice().iter().filter(|&&p| p > thr).count()
    }
}

impl<T: Copy + Default> Default for Image<T> {
    fn default() -> Self {
        Image::new(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let img = Image::<u8>::new(4, 3);
        assert_eq!(img.len(), 12);
        assert!(img.as_slice().iter().all(|&p| p == 0));
    }

    #[test]
    fn from_fn_row_major() {
        let img = Image::from_fn(3, 2, |x, y| (10 * y + x) as u8);
        assert_eq!(img.as_slice(), &[0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut img = Image::<u8>::new(5, 5);
        img.set(4, 4, 99);
        assert_eq!(img.get(4, 4), 99);
        assert_eq!(img.try_get(5, 4), None);
        assert_eq!(img.try_get(4, 5), None);
        assert_eq!(img.try_get(0, 0), Some(0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let img = Image::<u8>::new(2, 2);
        let _ = img.get(2, 0);
    }

    #[test]
    fn crop_clips_to_bounds() {
        let img = Image::from_fn(4, 4, |x, y| (y * 4 + x) as u8);
        let c = img.crop(2, 2, 10, 10);
        assert_eq!(c.dimensions(), (2, 2));
        assert_eq!(c.as_slice(), &[10, 11, 14, 15]);
    }

    #[test]
    fn crop_fully_outside_is_empty() {
        let img = Image::<u8>::new(4, 4);
        let c = img.crop(4, 4, 2, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn fill_rect_clips() {
        let mut img = Image::<u8>::new(4, 4);
        img.fill_rect(2, 2, 100, 100, 7);
        assert_eq!(img.count_above(0), 4);
    }

    #[test]
    fn blit_clips() {
        let mut dst = Image::<u8>::new(4, 4);
        let mut src = Image::<u8>::new(3, 3);
        src.fill(5);
        dst.blit(&src, 2, 2);
        assert_eq!(dst.count_above(0), 4);
        assert_eq!(dst.get(3, 3), 5);
        assert_eq!(dst.get(1, 1), 0);
    }

    #[test]
    fn map_preserves_shape() {
        let img = Image::from_fn(3, 3, |x, _| x as u8);
        let doubled = img.map(|p| (p * 2) as u16);
        assert_eq!(doubled.dimensions(), (3, 3));
        assert_eq!(doubled.get(2, 0), 4);
    }

    #[test]
    fn row_access() {
        let img = Image::from_fn(3, 2, |x, y| (y * 3 + x) as u8);
        assert_eq!(img.row(1), &[3, 4, 5]);
    }

    #[test]
    fn rows_iterates_in_order() {
        let img = Image::from_fn(3, 2, |x, y| (y * 3 + x) as u8);
        let rows: Vec<&[u8]> = img.rows().collect();
        assert_eq!(rows, vec![&[0u8, 1, 2][..], &[3, 4, 5][..]]);
        assert_eq!(Image::<u8>::new(0, 5).rows().count(), 0);
    }

    #[test]
    fn rows_mut_writes_through() {
        let mut img = Image::<u8>::new(2, 3);
        for (y, row) in img.rows_mut().enumerate() {
            row.fill(y as u8);
        }
        assert_eq!(img.as_slice(), &[0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn mean_and_max() {
        let mut img = Image::<u8>::new(2, 2);
        img.set(0, 0, 4);
        img.set(1, 1, 8);
        assert_eq!(img.mean(), 3.0);
        assert_eq!(img.max(), 8);
        assert_eq!(Image::<u8>::new(0, 0).mean(), 0.0);
    }

    #[test]
    fn from_raw_roundtrip() {
        let img = Image::from_raw(2, 2, vec![1u8, 2, 3, 4]);
        assert_eq!(img.into_raw(), vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "width * height")]
    fn from_raw_wrong_len_panics() {
        let _ = Image::from_raw(2, 2, vec![1u8, 2, 3]);
    }

    #[test]
    fn enumerate_pixels_order() {
        let img = Image::from_fn(2, 2, |x, y| (y * 2 + x) as u8);
        let v: Vec<_> = img.enumerate_pixels().map(|(x, y, &p)| (x, y, p)).collect();
        assert_eq!(v, vec![(0, 0, 0), (1, 0, 1), (0, 1, 2), (1, 1, 3)]);
    }

    #[test]
    fn clone_shares_storage() {
        let img = Image::from_fn(64, 64, |x, y| (x ^ y) as u8);
        let copy = img.clone();
        assert!(copy.shares_buffer_with(&img));
        assert_eq!(copy, img);
    }

    #[test]
    fn view_rows_is_zero_copy_and_window_equal() {
        let img = Image::from_fn(5, 6, |x, y| (y * 5 + x) as u8);
        let view = img.view_rows(2, 3);
        assert!(view.shares_buffer_with(&img));
        assert_eq!(view.dimensions(), (5, 3));
        assert_eq!(view, img.crop(0, 2, 5, 3));
        assert_eq!(view.row(0), img.row(2));
        assert_eq!(view.get(4, 2), img.get(4, 4));
    }

    #[test]
    fn view_of_view_composes() {
        let img = Image::from_fn(4, 8, |x, y| (y * 4 + x) as u8);
        let outer = img.view_rows(2, 5);
        let inner = outer.view_rows(1, 2);
        assert!(inner.shares_buffer_with(&img));
        assert_eq!(inner, img.crop(0, 3, 4, 2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_rows_out_of_bounds_panics() {
        let img = Image::<u8>::new(4, 4);
        let _ = img.view_rows(2, 3);
    }

    #[test]
    fn mutating_a_view_copies_on_write() {
        let img = Image::from_fn(3, 3, |_, _| 7u8);
        let mut view = img.view_rows(1, 1);
        view.set(0, 0, 9);
        assert!(!view.shares_buffer_with(&img));
        assert_eq!(img.get(0, 1), 7, "parent untouched");
        assert_eq!(view.get(0, 0), 9);
    }

    #[test]
    fn mutating_a_shared_clone_copies_on_write() {
        let a = Image::from_fn(2, 2, |x, _| x as u8);
        let mut b = a.clone();
        b.fill(5);
        assert_eq!(a.get(0, 0), 0, "original untouched");
        assert_eq!(b.get(0, 0), 5);
        assert!(!b.shares_buffer_with(&a));
    }

    #[test]
    fn unique_image_mutates_in_place_without_alloc() {
        let mut img = Image::<u8>::new(16, 16);
        let before = thread_pixel_alloc_count();
        img.fill(3);
        img.set(0, 0, 1);
        assert_eq!(
            thread_pixel_alloc_count(),
            before,
            "unique mutation is free"
        );
    }

    #[test]
    fn views_compare_equal_to_owned_copies() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let img = Image::from_fn(4, 4, |x, y| (x * y) as u8);
        let view = img.view_rows(1, 2);
        let owned = img.crop(0, 1, 4, 2);
        assert_eq!(view, owned);
        let h = |i: &Image<u8>| {
            let mut s = DefaultHasher::new();
            i.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&view), h(&owned));
    }

    #[test]
    fn into_raw_of_view_extracts_window() {
        let img = Image::from_fn(2, 3, |x, y| (y * 2 + x) as u8);
        let view = img.view_rows(1, 2);
        assert_eq!(view.into_raw(), vec![2, 3, 4, 5]);
    }
}
