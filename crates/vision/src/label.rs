//! Connected-component labelling.
//!
//! Implements the classic two-pass algorithm with a union-find equivalence
//! table — the core of the paper's `detect_mark` user function and of the
//! connected-component labelling application of Ginhac et al. (MVA'98)
//! parallelised with the `scm` skeleton.

use crate::Image;

/// Pixel connectivity used when labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Connectivity {
    /// 4-neighbourhood (N, S, E, W).
    Four,
    /// 8-neighbourhood (includes diagonals).
    #[default]
    Eight,
}

/// A union-find (disjoint-set) forest over `usize` ids with path compression
/// and union by rank.
///
/// # Example
///
/// ```
/// use skipper_vision::label::DisjointSets;
/// let mut ds = DisjointSets::new(4);
/// ds.union(0, 1);
/// ds.union(2, 3);
/// assert_eq!(ds.find(0), ds.find(1));
/// assert_ne!(ds.find(1), ds.find(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DisjointSets {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl DisjointSets {
    /// Creates `n` singleton sets `{0}, {1}, …, {n-1}`.
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements (not sets).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the structure holds no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Adds a fresh singleton and returns its id.
    pub fn push(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        self.rank.push(0);
        id
    }

    /// Representative of the set containing `x`, with path compression.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`; returns the new root.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => {
                self.parent[ra] = rb;
                rb
            }
            std::cmp::Ordering::Greater => {
                self.parent[rb] = ra;
                ra
            }
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
                ra
            }
        }
    }

    /// `true` when `a` and `b` belong to the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Labels the connected components of a binary image (non-zero = foreground).
///
/// Returns a label map with background 0 and components numbered densely
/// from 1 in raster order of their first pixel. Runs the row-slice strip
/// path of [`label_components_tiled`] on a single strip, writing into a
/// label map leased from the frame arena; the output is byte-identical to
/// [`label_components_reference`].
///
/// # Example
///
/// ```
/// use skipper_vision::{Image, label::{label_components, Connectivity}};
/// let mut img = Image::<u8>::new(5, 1);
/// img.set(0, 0, 255);
/// img.set(4, 0, 255);
/// let l = label_components(&img, Connectivity::Four);
/// assert_eq!(l.get(0, 0), 1);
/// assert_eq!(l.get(4, 0), 2);
/// assert_eq!(l.get(2, 0), 0);
/// ```
pub fn label_components(img: &Image<u8>, conn: Connectivity) -> Image<u32> {
    label_components_tiled(img, conn, 1)
}

/// The original per-pixel two-pass labelling, kept as the executable
/// specification: [`label_components`] (the row-slice strip path) must be
/// byte-identical to it for every image and connectivity. Prefer
/// [`label_components`] everywhere else — this walks the image with
/// bounds-checked per-pixel accesses and allocates its label map fresh.
pub fn label_components_reference(img: &Image<u8>, conn: Connectivity) -> Image<u32> {
    let (w, h) = img.dimensions();
    let mut labels: Vec<u32> = vec![0; w * h];
    if w == 0 || h == 0 {
        return Image::from_raw(w, h, labels);
    }
    let mut ds = DisjointSets::new(1); // id 0 reserved for background

    // First pass: provisional labels + equivalences.
    for y in 0..h {
        for x in 0..w {
            if img.get(x, y) == 0 {
                continue;
            }
            let west = if x > 0 { labels[y * w + x - 1] } else { 0 };
            let north = if y > 0 { labels[(y - 1) * w + x] } else { 0 };
            let (nw, ne) = if conn == Connectivity::Eight && y > 0 {
                (
                    if x > 0 {
                        labels[(y - 1) * w + x - 1]
                    } else {
                        0
                    },
                    if x + 1 < w {
                        labels[(y - 1) * w + x + 1]
                    } else {
                        0
                    },
                )
            } else {
                (0, 0)
            };
            let neighbours = [west, north, nw, ne];
            let mut assigned = 0u32;
            for &n in &neighbours {
                if n != 0 {
                    if assigned == 0 {
                        assigned = n;
                    } else {
                        ds.union(assigned as usize, n as usize);
                    }
                }
            }
            if assigned == 0 {
                assigned = ds.push() as u32;
            }
            labels[y * w + x] = assigned;
        }
    }
    // Second pass: resolve equivalences to dense labels.
    let mut dense: Vec<u32> = vec![0; ds.len()];
    let mut next = 0u32;
    for p in labels.iter_mut() {
        if *p == 0 {
            continue;
        }
        let root = ds.find(*p as usize);
        if dense[root] == 0 {
            next += 1;
            dense[root] = next;
        }
        *p = dense[root];
    }
    Image::from_raw(w, h, labels)
}

/// First labelling pass over one horizontal strip of the image, writing
/// provisional labels into `band` (the strip's rows of the label map,
/// starting at source row `y0`) and collecting equivalences in a
/// strip-local [`DisjointSets`]. Works on row slices, so the inner loop
/// indexes three flat arrays instead of doing per-pixel bounds-checked
/// `get` calls.
fn label_strip(
    img: &Image<u8>,
    y0: usize,
    band: &mut [u32],
    w: usize,
    conn: Connectivity,
) -> DisjointSets {
    let mut ds = DisjointSets::new(1); // id 0 reserved for background
    let rows = band.len() / w;
    for ry in 0..rows {
        let src = img.row(y0 + ry);
        let (prev_rows, cur_rows) = band.split_at_mut(ry * w);
        let prev = if ry > 0 {
            &prev_rows[(ry - 1) * w..]
        } else {
            &[][..]
        };
        let cur = &mut cur_rows[..w];
        for x in 0..w {
            if src[x] == 0 {
                // Written explicitly: the label map is leased without a
                // blanket reset, so background cells may hold stale labels.
                cur[x] = 0;
                continue;
            }
            let west = if x > 0 { cur[x - 1] } else { 0 };
            let (north, nw, ne) = if ry > 0 {
                let n = prev[x];
                if conn == Connectivity::Eight {
                    (
                        n,
                        if x > 0 { prev[x - 1] } else { 0 },
                        if x + 1 < w { prev[x + 1] } else { 0 },
                    )
                } else {
                    (n, 0, 0)
                }
            } else {
                (0, 0, 0)
            };
            let mut assigned = 0u32;
            for n in [west, north, nw, ne] {
                if n != 0 {
                    if assigned == 0 {
                        assigned = n;
                    } else {
                        ds.union(assigned as usize, n as usize);
                    }
                }
            }
            if assigned == 0 {
                assigned = ds.push() as u32;
            }
            cur[x] = assigned;
        }
    }
    ds
}

/// [`label_components`] with the first pass split into `strips`
/// horizontal bands labelled on **parallel threads**, then stitched by
/// merging equivalences along the band seams. The output is
/// byte-identical to the sequential labelling for every image,
/// connectivity and strip count: components are the same pixel sets
/// either way, and the final dense numbering depends only on raster
/// order of first appearance.
pub fn label_components_tiled(img: &Image<u8>, conn: Connectivity, strips: usize) -> Image<u32> {
    let (w, h) = img.dimensions();
    if w == 0 || h == 0 {
        return Image::new(w, h);
    }
    let strips = strips.clamp(1, h);
    // Near-equal row partition: starts[s]..starts[s + 1] is band `s`.
    let (base, extra) = (h / strips, h % strips);
    let mut starts = Vec::with_capacity(strips + 1);
    let mut y = 0usize;
    for s in 0..strips {
        starts.push(y);
        y += base + usize::from(s < extra);
    }
    starts.push(h);

    // The label map is leased from the frame arena and filled while the
    // lease is still exclusive, so a farmed pipeline recycles one label
    // buffer per worker across frames. The first pass writes every cell
    // (background included), so the lease skips the blanket reset.
    Image::leased_full(w, h, |labels| {
        // Parallel first pass: each band owns its rows of the label map.
        let mut local_sets: Vec<DisjointSets> = Vec::with_capacity(strips);
        {
            let mut rest = &mut labels[..];
            let mut bands = Vec::with_capacity(strips);
            for s in 0..strips {
                let rows = starts[s + 1] - starts[s];
                let (band, tail) = rest.split_at_mut(rows * w);
                bands.push((starts[s], band));
                rest = tail;
            }
            if strips == 1 {
                let (y0, band) = bands.pop().expect("one band");
                local_sets.push(label_strip(img, y0, band, w, conn));
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = bands
                        .into_iter()
                        .map(|(y0, band)| scope.spawn(move || label_strip(img, y0, band, w, conn)))
                        .collect();
                    for handle in handles {
                        local_sets.push(handle.join().expect("strip labelling thread"));
                    }
                });
            }
        }

        // Stitch: re-base each band's provisional ids into one global
        // universe, replay the local equivalences, then union across seams.
        let mut offsets = Vec::with_capacity(strips);
        let mut total = 1usize;
        for local in &local_sets {
            offsets.push(total - 1);
            total += local.len() - 1;
        }
        let mut ds = DisjointSets::new(total);
        for (s, local) in local_sets.iter_mut().enumerate() {
            let off = offsets[s];
            for i in 1..local.len() {
                let root = local.find(i);
                ds.union(i + off, root + off);
            }
        }
        for s in 1..strips {
            let off = offsets[s] as u32;
            if off == 0 {
                continue;
            }
            for p in &mut labels[starts[s] * w..starts[s + 1] * w] {
                if *p != 0 {
                    *p += off;
                }
            }
        }
        for &y in &starts[1..strips] {
            let seam = img.row(y);
            let above = &labels[(y - 1) * w..y * w];
            let cur_band = &labels[y * w..(y + 1) * w];
            for x in 0..w {
                if seam[x] == 0 || cur_band[x] == 0 {
                    continue;
                }
                let cur = cur_band[x] as usize;
                let span = match conn {
                    Connectivity::Four => x..x + 1,
                    Connectivity::Eight => x.saturating_sub(1)..(x + 2).min(w),
                };
                for n in &above[span] {
                    if *n != 0 {
                        ds.union(cur, *n as usize);
                    }
                }
            }
        }

        // Second pass: resolve to dense labels in raster order, exactly as
        // the sequential algorithm numbers them.
        let mut dense: Vec<u32> = vec![0; ds.len()];
        let mut next = 0u32;
        for p in labels.iter_mut() {
            if *p == 0 {
                continue;
            }
            let root = ds.find(*p as usize);
            if dense[root] == 0 {
                next += 1;
                dense[root] = next;
            }
            *p = dense[root];
        }
    })
}

/// Number of connected components of a binary image.
pub fn count_components(img: &Image<u8>, conn: Connectivity) -> u32 {
    let labels = label_components(img, conn);
    labels.as_slice().iter().copied().max().unwrap_or(0)
}

/// Relabels `labels` so that label values are dense in `1..=n`, preserving
/// raster order of first appearance. Returns the number of labels.
pub fn make_dense(labels: &mut Image<u32>) -> u32 {
    let mut remap: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut next = 0u32;
    for p in labels.as_mut_slice() {
        if *p == 0 {
            continue;
        }
        let entry = remap.entry(*p).or_insert_with(|| {
            next += 1;
            next
        });
        *p = *entry;
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_image_has_no_components() {
        let img = Image::<u8>::new(8, 8);
        assert_eq!(count_components(&img, Connectivity::Eight), 0);
    }

    #[test]
    fn single_blob() {
        let mut img = Image::<u8>::new(8, 8);
        img.fill_rect(2, 2, 3, 3, 255);
        assert_eq!(count_components(&img, Connectivity::Four), 1);
    }

    #[test]
    fn diagonal_blobs_depend_on_connectivity() {
        // Two pixels touching only diagonally.
        let mut img = Image::<u8>::new(4, 4);
        img.set(1, 1, 255);
        img.set(2, 2, 255);
        assert_eq!(count_components(&img, Connectivity::Four), 2);
        assert_eq!(count_components(&img, Connectivity::Eight), 1);
    }

    #[test]
    fn u_shape_merges_via_equivalence() {
        // A 'U' initially gets two provisional labels that must merge.
        let mut img = Image::<u8>::new(5, 4);
        img.fill_rect(0, 0, 1, 4, 255);
        img.fill_rect(4, 0, 1, 4, 255);
        img.fill_rect(0, 3, 5, 1, 255);
        assert_eq!(count_components(&img, Connectivity::Four), 1);
    }

    #[test]
    fn labels_are_dense_from_one() {
        let mut img = Image::<u8>::new(9, 1);
        for x in [0usize, 3, 6] {
            img.set(x, 0, 255);
        }
        let l = label_components(&img, Connectivity::Four);
        assert_eq!(l.get(0, 0), 1);
        assert_eq!(l.get(3, 0), 2);
        assert_eq!(l.get(6, 0), 3);
    }

    #[test]
    fn checkerboard_four_connectivity() {
        let img = Image::from_fn(6, 6, |x, y| if (x + y) % 2 == 0 { 255 } else { 0 });
        assert_eq!(count_components(&img, Connectivity::Four), 18);
        assert_eq!(count_components(&img, Connectivity::Eight), 1);
    }

    #[test]
    fn disjoint_sets_basics() {
        let mut ds = DisjointSets::new(3);
        assert_eq!(ds.len(), 3);
        assert!(!ds.same(0, 2));
        ds.union(0, 1);
        ds.union(1, 2);
        assert!(ds.same(0, 2));
        let id = ds.push();
        assert_eq!(id, 3);
        assert!(!ds.same(0, 3));
    }

    /// Deterministic pseudo-random binary image (splitmix-style mixing),
    /// density ~1/2 so components frequently straddle strip seams.
    fn noise_image(w: usize, h: usize, seed: u64) -> Image<u8> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        Image::from_fn(w, h, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            u8::from((s >> 62) & 1 == 1) * 255
        })
    }

    #[test]
    fn tiled_labelling_equals_sequential_exactly() {
        for conn in [Connectivity::Four, Connectivity::Eight] {
            for (w, h, seed) in [(1, 1, 1), (7, 3, 2), (31, 17, 3), (64, 64, 4), (5, 40, 5)] {
                let img = noise_image(w, h, seed);
                let golden = label_components_reference(&img, conn);
                assert_eq!(label_components(&img, conn), golden, "{w}x{h} {conn:?}");
                for strips in [1, 2, 3, 4, 7, h, h + 5] {
                    let tiled = label_components_tiled(&img, conn, strips);
                    assert_eq!(
                        tiled, golden,
                        "{w}x{h} seed {seed} {conn:?} strips {strips}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_labelling_equals_sequential_on_a_1080p_frame() {
        let img = crate::synth::random_blobs(1920, 1080, 160, 18);
        let tiled = label_components_tiled(&img, Connectivity::Eight, 8);
        assert_eq!(tiled, label_components(&img, Connectivity::Eight));
    }

    #[test]
    fn tiled_labelling_merges_structures_across_seams() {
        // A 'U' whose arms live in different strips: the seam stitch must
        // recover the single component, numbered exactly like sequential.
        let mut img = Image::<u8>::new(5, 8);
        img.fill_rect(0, 0, 1, 8, 255);
        img.fill_rect(4, 0, 1, 8, 255);
        img.fill_rect(0, 7, 5, 1, 255);
        for strips in 1..=8 {
            let tiled = label_components_tiled(&img, Connectivity::Four, strips);
            assert_eq!(
                tiled,
                label_components(&img, Connectivity::Four),
                "{strips} strips"
            );
            assert_eq!(tiled.as_slice().iter().copied().max(), Some(1));
        }
    }

    #[test]
    fn make_dense_renumbers() {
        let mut l = Image::from_raw(4, 1, vec![0u32, 7, 7, 42]);
        let n = make_dense(&mut l);
        assert_eq!(n, 2);
        assert_eq!(l.as_slice(), &[0, 1, 1, 2]);
    }
}
