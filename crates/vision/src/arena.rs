//! Per-worker pooled pixel buffers — the frame arena.
//!
//! Stage kernels used to call `Image::new` once per frame per stage; on a
//! prepared executable running thousands of frames that is a steady drip of
//! large allocations. A [`FrameArena`] keeps a small per-thread pool of
//! `Arc<Vec<T>>` buffers and *leases* them out: a lease scans for a slot
//! whose refcount has returned to one (every consumer handle dropped),
//! reuses its capacity (`clear` + `resize`, no heap traffic), fills it
//! while the arena still holds the only handle, then freezes it into a
//! shared [`Image`]. On the persistent worker threads of the pool and
//! shard backends this makes the steady-state pixel path allocation-free:
//! after a warmup frame, [`crate::image::pixel_alloc_count`] stops moving.
//!
//! Ownership rules:
//!
//! - a lease is filled exactly once, inside [`Image::leased`]'s closure,
//!   and is read-only afterwards (mutating the resulting image falls back
//!   to ordinary copy-on-write — correct, but it forfeits the recycling);
//! - the arena retains one handle per slot, so a slot is recycled as soon
//!   as the last consumer drops its image — typically when the merge
//!   result of the *next* frame replaces it;
//! - arenas are thread-local: buffers leased on a pool worker die with
//!   that worker, i.e. with the backend (and its prepared executables).
//!
//! Misses — no free slot, a capacity grow, or a pool already at
//! [`FrameArena::MAX_SLOTS`] — fall back to a fresh transient allocation
//! (counted by the probe) and never fail.

use crate::image::note_pixel_alloc;
use crate::Image;
use std::cell::RefCell;
use std::sync::Arc;

/// A small pool of recyclable pixel buffers for one thread and one pixel
/// type. Normally used through [`Image::leased`]; exposed so tests and
/// benchmarks can construct private arenas.
#[derive(Debug, Default)]
pub struct FrameArena<T> {
    slots: Vec<Arc<Vec<T>>>,
}

impl<T: Copy + Default> FrameArena<T> {
    /// Upper bound on pooled buffers per thread and pixel type; leases
    /// beyond it are served as transient (unpooled) allocations.
    pub const MAX_SLOTS: usize = 32;

    /// An empty arena.
    pub const fn new() -> Self {
        FrameArena { slots: Vec::new() }
    }

    /// Number of buffers currently pooled.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Leases a buffer of exactly `len` elements, default-filled, runs
    /// `fill` on it while the arena holds the only reference, and returns
    /// the now-shared buffer. Reuses the first free slot with sufficient
    /// capacity (zero heap traffic); otherwise grows a free slot or, when
    /// none exists, allocates fresh.
    pub fn lease(&mut self, len: usize, fill: impl FnOnce(&mut [T])) -> Arc<Vec<T>> {
        self.lease_impl(len, true, fill)
    }

    /// Like [`FrameArena::lease`], but skips the defensive default-fill:
    /// a recycled buffer arrives with **stale contents** from an earlier
    /// lease. Only correct when `fill` writes every element — which is
    /// exactly the shape of the dense stage kernels (threshold, convolve,
    /// label passes), where the blanket reset would be a redundant full
    /// memset per frame.
    pub fn lease_full(&mut self, len: usize, fill: impl FnOnce(&mut [T])) -> Arc<Vec<T>> {
        self.lease_impl(len, false, fill)
    }

    fn lease_impl(&mut self, len: usize, reset: bool, fill: impl FnOnce(&mut [T])) -> Arc<Vec<T>> {
        let mut first_free = None;
        let mut fitting = None;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(buf) = Arc::get_mut(slot) {
                if first_free.is_none() {
                    first_free = Some(i);
                }
                if buf.capacity() >= len {
                    fitting = Some(i);
                    break;
                }
            }
        }
        match fitting.or(first_free) {
            Some(i) => {
                let slot = &mut self.slots[i];
                let buf = Arc::get_mut(slot).expect("free slot has a unique handle");
                if buf.capacity() < len {
                    note_pixel_alloc(len); // the resize below reallocates
                }
                if reset {
                    buf.clear();
                }
                // Without a reset this writes only the tail the previous
                // lease never initialised; the retained prefix is stale
                // (and `lease_full`'s contract says the fill overwrites it).
                buf.truncate(len);
                buf.resize(len, T::default());
                fill(buf);
                Arc::clone(slot)
            }
            None => {
                note_pixel_alloc(len);
                let mut buf = vec![T::default(); len];
                fill(&mut buf);
                let lease = Arc::new(buf);
                if self.slots.len() < Self::MAX_SLOTS {
                    self.slots.push(Arc::clone(&lease));
                }
                lease
            }
        }
    }
}

/// Pixel types with a per-thread [`FrameArena`]: the element types of the
/// leased [`Image`]s on the hot path (`u8` frames, `u32` label maps,
/// `i32` gradient maps).
pub trait ArenaPixel: Copy + Default + Send + Sync + 'static {
    /// Runs `f` with this thread's arena for `Self`. Re-entrant calls
    /// (leasing inside a fill closure for the same pixel type) are served
    /// from a transient arena instead of panicking.
    fn with_arena<R>(f: impl FnOnce(&mut FrameArena<Self>) -> R) -> R;
}

macro_rules! arena_pixel {
    ($t:ty, $tls:ident) => {
        thread_local! {
            static $tls: RefCell<FrameArena<$t>> = const { RefCell::new(FrameArena::new()) };
        }
        impl ArenaPixel for $t {
            fn with_arena<R>(f: impl FnOnce(&mut FrameArena<Self>) -> R) -> R {
                $tls.with(|cell| match cell.try_borrow_mut() {
                    Ok(mut arena) => f(&mut arena),
                    Err(_) => f(&mut FrameArena::new()),
                })
            }
        }
    };
}

arena_pixel!(u8, U8_ARENA);
arena_pixel!(u32, U32_ARENA);
arena_pixel!(i32, I32_ARENA);

impl<T: ArenaPixel> Image<T> {
    /// Creates a `width × height` image in a buffer leased from the
    /// current thread's [`FrameArena`]. The buffer arrives default-filled;
    /// `fill` writes the pixels while the lease is still exclusive. After
    /// warmup this is the allocation-free replacement for
    /// `Image::new` + `as_mut_slice` on per-frame stage outputs.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` overflows `usize`.
    pub fn leased(width: usize, height: usize, fill: impl FnOnce(&mut [T])) -> Image<T> {
        let len = width
            .checked_mul(height)
            .expect("image dimensions overflow");
        let data = T::with_arena(|arena| arena.lease(len, fill));
        Image::from_shared(width, height, data)
    }

    /// [`Image::leased`] without the defensive default-fill (see
    /// [`FrameArena::lease_full`]): `fill` receives a buffer whose
    /// recycled contents are **stale** and must write every pixel. The
    /// dense kernels and band merges use this — they cover the whole
    /// output anyway, so the blanket reset would be a second full pass
    /// over the buffer every frame.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` overflows `usize`.
    pub fn leased_full(width: usize, height: usize, fill: impl FnOnce(&mut [T])) -> Image<T> {
        let len = width
            .checked_mul(height)
            .expect("image dimensions overflow");
        let data = T::with_arena(|arena| arena.lease_full(len, fill));
        Image::from_shared(width, height, data)
    }

    /// [`Image::crop`] into a leased buffer: same clipping and contents,
    /// but the copy lands in a recycled arena slot instead of a fresh
    /// allocation. This is the staging path for windows that must be
    /// contiguous (tile views, tracking ROIs).
    pub fn crop_leased(&self, x0: usize, y0: usize, w: usize, h: usize) -> Image<T> {
        let x1 = (x0 + w).min(self.width());
        let y1 = (y0 + h).min(self.height());
        let (cw, ch) = (x1.saturating_sub(x0), y1.saturating_sub(y0));
        let src = self.as_slice();
        let sw = self.width();
        Image::leased_full(cw, ch, |buf| {
            for y in 0..ch {
                let s = (y0 + y) * sw + x0;
                buf[y * cw..(y + 1) * cw].copy_from_slice(&src[s..s + cw]);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::thread_pixel_alloc_count;

    #[test]
    fn lease_fill_and_freeze() {
        let img = Image::<u8>::leased(4, 2, |buf| {
            for (i, p) in buf.iter_mut().enumerate() {
                *p = i as u8;
            }
        });
        assert_eq!(img.dimensions(), (4, 2));
        assert_eq!(img.as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn private_arena_recycles_capacity() {
        let mut arena = FrameArena::<u8>::new();
        let a = arena.lease(64, |b| b.fill(1));
        assert_eq!(arena.slots(), 1);
        // Slot busy while `a` lives: a second lease opens a second slot.
        let b = arena.lease(64, |b| b.fill(2));
        assert_eq!(arena.slots(), 2);
        drop(a);
        drop(b);
        let before = thread_pixel_alloc_count();
        let c = arena.lease(64, |b| b.fill(3));
        assert_eq!(thread_pixel_alloc_count(), before, "recycled lease is free");
        assert_eq!(arena.slots(), 2);
        assert!(c.iter().all(|&p| p == 3));
    }

    #[test]
    fn recycled_lease_is_default_filled_before_fill_runs() {
        let mut arena = FrameArena::<u8>::new();
        drop(arena.lease(8, |b| b.fill(0xAA)));
        let clean = arena.lease(8, |_| {});
        assert!(clean.iter().all(|&p| p == 0), "stale pixels cleared");
    }

    #[test]
    fn full_lease_skips_the_reset_and_keeps_stale_contents() {
        let mut arena = FrameArena::<u8>::new();
        drop(arena.lease(8, |b| b.fill(0xAA)));
        // The stale prefix is visible inside the fill closure…
        let out = arena.lease_full(4, |b| {
            assert!(b.iter().all(|&p| p == 0xAA), "stale pixels retained");
            b.fill(7);
        });
        assert!(out.iter().all(|&p| p == 7));
        drop(out);
        // …and growing past the initialised prefix default-fills only
        // the tail (still within one recycled slot).
        drop(arena.lease_full(2, |_| {}));
        let grown = arena.lease_full(6, |b| {
            assert_eq!(&b[..2], &[7, 7], "stale prefix retained");
            assert_eq!(&b[2..], &[0, 0, 0, 0], "fresh tail default-filled");
            b.fill(9);
        });
        assert_eq!(grown.len(), 6);
    }

    #[test]
    fn smaller_lease_reuses_larger_capacity() {
        let mut arena = FrameArena::<u8>::new();
        drop(arena.lease(128, |_| {}));
        let before = thread_pixel_alloc_count();
        let small = arena.lease(16, |b| b.fill(9));
        assert_eq!(
            thread_pixel_alloc_count(),
            before,
            "shrinking reuse is free"
        );
        assert_eq!(small.len(), 16);
    }

    #[test]
    fn growing_a_slot_counts_one_alloc() {
        let mut arena = FrameArena::<u8>::new();
        drop(arena.lease(8, |_| {}));
        let before = thread_pixel_alloc_count();
        let big = arena.lease(1 << 16, |_| {});
        assert_eq!(thread_pixel_alloc_count(), before + 1);
        assert_eq!(big.len(), 1 << 16);
    }

    #[test]
    fn overflow_beyond_max_slots_is_transient() {
        let mut arena = FrameArena::<u8>::new();
        let held: Vec<_> = (0..FrameArena::<u8>::MAX_SLOTS)
            .map(|_| arena.lease(4, |_| {}))
            .collect();
        assert_eq!(arena.slots(), FrameArena::<u8>::MAX_SLOTS);
        let extra = arena.lease(4, |_| {});
        assert_eq!(arena.slots(), FrameArena::<u8>::MAX_SLOTS, "not pooled");
        assert_eq!(extra.len(), 4);
        drop(held);
    }

    #[test]
    fn thread_local_leases_reach_steady_state() {
        // Same shape as the cross-crate probe test: after one warmup
        // frame, repeated lease/drop cycles on one thread allocate nothing.
        for _ in 0..2 {
            drop(Image::<u32>::leased(32, 32, |b| b.fill(1)));
        }
        let before = thread_pixel_alloc_count();
        for _ in 0..16 {
            let img = Image::<u32>::leased(32, 32, |b| b.fill(2));
            assert_eq!(img.get(0, 0), 2);
        }
        assert_eq!(thread_pixel_alloc_count(), before);
    }

    #[test]
    fn nested_lease_of_same_type_does_not_panic() {
        let img = Image::<u8>::leased(4, 4, |outer| {
            let inner = Image::<u8>::leased(2, 2, |b| b.fill(7));
            outer[0] = inner.get(0, 0);
        });
        assert_eq!(img.get(0, 0), 7);
    }

    #[test]
    fn crop_leased_matches_crop() {
        let img = Image::from_fn(8, 8, |x, y| (x * 8 + y) as u8);
        assert_eq!(img.crop_leased(2, 3, 4, 10), img.crop(2, 3, 4, 10));
        assert_eq!(img.crop_leased(8, 8, 2, 2).len(), 0);
    }
}
