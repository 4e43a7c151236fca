//! The `itermem` skeleton: stream iteration with memory.
//!
//! "Used whenever the stream-based model of computation has to be made
//! explicit, in particular when computations on the *n*-th image depend on
//! results computed on previous ones. Such 'looping' patterns are very
//! common in tracking algorithms, based upon system-state prediction"
//! (paper §2, Fig. 4).
//!
//! The Fig. 4 contract is `let z', y = loop (z, inp x) in out y; f z'`: an
//! input function produces the per-iteration datum, the loop function maps
//! `(state, input)` to `(state', output)`, and the output function consumes
//! the result while the new state feeds the next iteration through the
//! `MEM` process.
//!
//! [`IterMem`] is the *push-driven* runner for live emulation with
//! input/display callbacks; the composable, backend-retargetable program
//! form of the same loop is [`crate::itermem()`] / [`crate::IterLoop`].
//!
//! The input side of the loop is any [`FrameSource`] — named sources
//! ([`VecSource`], [`BoundedSource`], [`frames_from_fn`]) or, via the
//! blanket impl, any bare `FnMut() -> Option<B>` closure such as the ones
//! [`stream_of`] builds.

/// A named source of stream frames — the `inp` side of Fig. 4.
///
/// Pre-0.3, stream inputs were bare `FnMut() -> Option<B>` closures. This
/// trait names that contract so sources can be stored, composed and shared
/// between [`IterMem`], the prepared stream helpers in `skipper-apps` and
/// the `serve` frame-serving engine. Every such closure still implements
/// it through the blanket impl, so no call site has to change.
///
/// ```
/// use skipper::itermem::{frames_from_fn, stream_of, FrameSource, VecSource};
/// let mut v = VecSource::new(vec![1, 2, 3]);
/// assert_eq!(v.next_frame(), Some(1));
/// assert_eq!(v.remaining(), 2);
/// // Closures keep working, and infinite generators can be bounded.
/// let mut ticks = frames_from_fn(|k| k * 10).take_frames(2);
/// assert_eq!(ticks.next_frame(), Some(0));
/// assert_eq!(ticks.next_frame(), Some(10));
/// assert_eq!(ticks.next_frame(), None);
/// let mut s = stream_of(["a"]);
/// assert_eq!(s.next_frame(), Some("a"));
/// ```
pub trait FrameSource<B> {
    /// Produces the next frame, or `None` once the stream has ended.
    fn next_frame(&mut self) -> Option<B>;

    /// Caps this source at `max` frames, then reports end-of-stream —
    /// the finite window a real-time emulation takes of an endless camera.
    fn take_frames(self, max: usize) -> BoundedSource<Self>
    where
        Self: Sized,
    {
        BoundedSource {
            inner: self,
            left: max,
        }
    }
}

impl<B, F: FnMut() -> Option<B>> FrameSource<B> for F {
    fn next_frame(&mut self) -> Option<B> {
        self()
    }
}

/// A source that serves the frames of a `Vec` in order.
#[derive(Debug, Clone)]
pub struct VecSource<B> {
    frames: std::vec::IntoIter<B>,
}

impl<B> VecSource<B> {
    /// Wraps an owned frame buffer.
    pub fn new(frames: Vec<B>) -> Self {
        VecSource {
            frames: frames.into_iter(),
        }
    }

    /// Frames not yet served.
    pub fn remaining(&self) -> usize {
        self.frames.len()
    }
}

impl<B> FrameSource<B> for VecSource<B> {
    fn next_frame(&mut self) -> Option<B> {
        self.frames.next()
    }
}

/// A source capped at a fixed number of frames; built by
/// [`FrameSource::take_frames`].
#[derive(Debug, Clone)]
pub struct BoundedSource<S> {
    inner: S,
    left: usize,
}

impl<S> BoundedSource<S> {
    /// Frames this bound still admits (the inner source may end sooner).
    pub fn frames_left(&self) -> usize {
        self.left
    }
}

impl<B, S: FrameSource<B>> FrameSource<B> for BoundedSource<S> {
    fn next_frame(&mut self) -> Option<B> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.inner.next_frame()
    }
}

/// An endless generator source: frame `k` is `f(k)`, counting from 0.
/// Pair with [`FrameSource::take_frames`] for a finite stream (synthetic
/// camera feeds in benches and the serving traffic generator).
pub fn frames_from_fn<B, F: FnMut(usize) -> B>(mut f: F) -> impl FrameSource<B> {
    let mut k = 0usize;
    move || {
        let frame = f(k);
        k += 1;
        Some(frame)
    }
}

/// The stream-loop skeleton.
///
/// Differences from the paper's Caml definition, which recurses forever:
/// the input function returns `Option<B>` so finite streams terminate, and
/// the final state is returned for inspection. The literal bounded
/// transliteration lives in [`crate::spec::itermem`].
///
/// # Example
///
/// ```
/// use skipper::IterMem;
/// let mut frames = (1..=5).map(Some).collect::<Vec<_>>().into_iter();
/// let mut shown = Vec::new();
/// let mut loop_count = IterMem::new(
///     move || frames.next().flatten(),               // inp: the camera
///     |state: i32, frame: i32| (state + frame, state), // loop: predict/update
///     |y| shown.push(y),                             // out: the display
///     0,
/// );
/// let iterations = loop_count.run();
/// assert_eq!(iterations, 5);
/// assert_eq!(loop_count.state(), &15);
/// ```
#[derive(Debug)]
pub struct IterMem<In, L, Out, Z> {
    inp: In,
    loop_fn: L,
    out: Out,
    state: Option<Z>,
    iterations: usize,
}

impl<In, L, Out, Z> IterMem<In, L, Out, Z> {
    /// Creates the loop with its initial memory value (the paper's `z`,
    /// e.g. `init_state ()`).
    pub fn new(inp: In, loop_fn: L, out: Out, init: Z) -> Self {
        IterMem {
            inp,
            loop_fn,
            out,
            state: Some(init),
            iterations: 0,
        }
    }

    /// The current memory value.
    ///
    /// # Panics
    ///
    /// Panics if a previous iteration panicked mid-update.
    pub fn state(&self) -> &Z {
        self.state.as_ref().expect("state present")
    }

    /// Number of completed iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Consumes the loop, returning the final memory value.
    pub fn into_state(self) -> Z {
        self.state.expect("state present")
    }

    /// Runs one iteration. Returns `false` when the input stream has ended
    /// (no state change happens in that case).
    pub fn step<B, Y>(&mut self) -> bool
    where
        In: FrameSource<B>,
        L: FnMut(Z, B) -> (Z, Y),
        Out: FnMut(Y),
    {
        let Some(b) = self.inp.next_frame() else {
            return false;
        };
        let z = self.state.take().expect("state present");
        let (z2, y) = (self.loop_fn)(z, b);
        (self.out)(y);
        self.state = Some(z2);
        self.iterations += 1;
        true
    }

    /// Runs until the input stream ends; returns the number of iterations
    /// executed by this call.
    pub fn run<B, Y>(&mut self) -> usize
    where
        In: FrameSource<B>,
        L: FnMut(Z, B) -> (Z, Y),
        Out: FnMut(Y),
    {
        let before = self.iterations;
        while self.step() {}
        self.iterations - before
    }

    /// Runs at most `max_iters` iterations; returns how many actually ran.
    pub fn run_n<B, Y>(&mut self, max_iters: usize) -> usize
    where
        In: FrameSource<B>,
        L: FnMut(Z, B) -> (Z, Y),
        Out: FnMut(Y),
    {
        let before = self.iterations;
        for _ in 0..max_iters {
            if !self.step() {
                break;
            }
        }
        self.iterations - before
    }
}

/// Convenience: builds a [`FrameSource`] from any iterator of frames (the
/// sequential-emulation stand-in for `read_img`). The concrete return type
/// is still a bare closure, so it can also be called directly.
pub fn stream_of<B>(frames: impl IntoIterator<Item = B>) -> impl FnMut() -> Option<B> {
    let mut it = frames.into_iter();
    move || it.next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_threads_across_iterations() {
        let mut outputs = Vec::new();
        let mut im = IterMem::new(
            stream_of([10, 20, 30]),
            |z: i32, b: i32| (z + b, z + b),
            |y| outputs.push(y),
            0,
        );
        assert_eq!(im.run(), 3);
        assert_eq!(im.into_state(), 60);
        assert_eq!(outputs, vec![10, 30, 60]);
    }

    #[test]
    fn empty_stream_runs_zero_iterations() {
        let mut im = IterMem::new(
            stream_of(Vec::<i32>::new()),
            |z: i32, b| (z + b, ()),
            |_| {},
            5,
        );
        assert_eq!(im.run(), 0);
        assert_eq!(im.state(), &5);
    }

    #[test]
    fn run_n_stops_early() {
        let mut im = IterMem::new(stream_of(0..100), |z: i32, b: i32| (z + b, ()), |_| {}, 0);
        assert_eq!(im.run_n(10), 10);
        assert_eq!(im.iterations(), 10);
        assert_eq!(im.state(), &45);
        // Continue from where we left off.
        assert_eq!(im.run_n(5), 5);
        assert_eq!(im.iterations(), 15);
    }

    #[test]
    fn step_reports_stream_end() {
        let mut im = IterMem::new(stream_of([1]), |z: i32, b: i32| (z + b, ()), |_| {}, 0);
        assert!(im.step());
        assert!(!im.step());
        assert!(!im.step());
        assert_eq!(im.iterations(), 1);
    }

    #[test]
    fn matches_bounded_spec() {
        // Same loop via the paper-literal spec function.
        let mut spec_out = Vec::new();
        let spec_final = crate::spec::itermem(
            |x: &i32| *x,
            |z: i32, b: i32| (z + b, z),
            |y| spec_out.push(y),
            0,
            &7,
            4,
        );
        let mut lib_out = Vec::new();
        let mut im = IterMem::new(
            stream_of(std::iter::repeat_n(7, 4)),
            |z: i32, b: i32| (z + b, z),
            |y| lib_out.push(y),
            0,
        );
        im.run();
        let lib_final = im.into_state();
        assert_eq!(spec_out, lib_out);
        assert_eq!(spec_final, lib_final);
    }

    #[test]
    fn named_sources_feed_the_loop() {
        let mut outputs = Vec::new();
        let mut im = IterMem::new(
            VecSource::new(vec![1, 2, 3]),
            |z: i32, b: i32| (z + b, b * 2),
            |y| outputs.push(y),
            0,
        );
        assert_eq!(im.run(), 3);
        assert_eq!(im.into_state(), 6);
        assert_eq!(outputs, vec![2, 4, 6]);
    }

    #[test]
    fn bounded_generator_terminates_the_loop() {
        let mut im = IterMem::new(
            frames_from_fn(|k| k as i32).take_frames(4),
            |z: i32, b: i32| (z + b, ()),
            |_| {},
            0,
        );
        assert_eq!(im.run(), 4);
        assert_eq!(im.state(), &6); // 0 + 1 + 2 + 3
    }

    #[test]
    fn bounded_source_ends_with_its_inner_source() {
        // The bound admits 10 frames but the vec holds 2.
        let mut src = VecSource::new(vec![5, 6]).take_frames(10);
        assert_eq!(src.next_frame(), Some(5));
        assert_eq!(src.next_frame(), Some(6));
        assert_eq!(src.frames_left(), 8);
        assert_eq!(src.next_frame(), None);
    }

    #[test]
    fn loop_body_may_use_a_farm() {
        // The paper's tracker: a df farm inside the itermem loop.
        use crate::{Backend, PoolBackend};
        let farm = crate::Df::new(4, |x: &u64| x * x, |z: u64, y| z + y, 0u64);
        let frames: Vec<Vec<u64>> = (1..=3).map(|k| (0..k * 4).collect()).collect();
        let pool = PoolBackend::new();
        let mut totals = Vec::new();
        let mut im = IterMem::new(
            stream_of(frames.clone()),
            |z: u64, frame: Vec<u64>| {
                let s = pool.run(&farm, &frame[..]);
                (z + s, s)
            },
            |y| totals.push(y),
            0u64,
        );
        im.run();
        let expected: Vec<u64> = frames
            .iter()
            .map(|f| f.iter().map(|x| x * x).sum())
            .collect();
        assert_eq!(totals, expected);
    }
}
