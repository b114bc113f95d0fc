//! Graph-structured tape ops: row gathering, segment reductions and the
//! per-destination edge softmax that powers every attention aggregator.
//!
//! All segment ops assume the edge dimension is grouped: edges into the
//! same destination node occupy a contiguous range described by
//! [`Segments`]. The graph crate produces edge lists in exactly this order.
//!
//! Forward and backward kernels here are partitioned across the shared
//! worker scheme in [`crate::parallel`] — at *segment* boundaries, or at
//! node rows for the backward folds over an [`EdgeIndex`]'s by-target
//! order — so each segment or node row is reduced whole by one worker
//! running the identical serial inner loop. The few scatters into
//! arbitrary rows that remain run serially. Outputs are therefore bitwise
//! identical at any thread count, which the determinism tests assert.

use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

use crate::audit::{require_eq, Arity};
use crate::fold::{by_blocks, madd_into, product_sums, with_madd, Madd};
use crate::matrix::Matrix;
use crate::parallel::{parallel_ranges, parallel_ranges_pair, parallel_rows, parallel_rows_pair};
use crate::pool;
use crate::simd::{edge_add_scaled, edge_mul, is_tiny, Exact};
use crate::tape::{Op, Tape, Tensor};

/// Segment-boundary invariant shared by every segment op's shape rule: the
/// rows must be exactly the segmented elements (the segments are sorted and
/// covering by construction of [`Segments`]).
fn require_segment_cover(what: &str, segs: &Segments, rows: usize) -> Result<(), String> {
    require_eq(&format!("{what}: rows must cover the segmented elements"), rows, segs.total_len())
}

/// Every index must address one of `rows` rows.
pub(crate) fn require_in_bounds(what: &str, idx: &[u32], rows: usize) -> Result<(), String> {
    let bad = idx.iter().find(|&&i| i as usize >= rows); // lint:allow(lossy-cast) -- u32 index widens losslessly
    match bad {
        Some(bad) => Err(format!("{what}: index {bad} out of bounds for {rows} rows")),
        None => Ok(()),
    }
}

/// Boundaries of contiguous segments over a length-`n` axis.
///
/// `offsets` has `num_segments + 1` entries; segment `s` covers
/// `offsets[s]..offsets[s + 1]`. Empty segments are allowed.
#[derive(Clone, Debug)]
pub struct Segments {
    offsets: Vec<usize>,
    /// The segment of each element, built on first [`Segments::owners`]
    /// call: the by-source folds look up each edge's upstream row by it.
    owners: OnceLock<Vec<u32>>,
}

impl Segments {
    /// # Panics
    /// Panics if `offsets` is empty or not monotonically non-decreasing.
    pub fn new(offsets: Vec<usize>) -> Self {
        assert!(!offsets.is_empty(), "segments need at least one offset");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "segment offsets must be sorted");
        Self { offsets, owners: OnceLock::new() }
    }

    /// Builds segments from per-segment lengths.
    pub fn from_lengths(lengths: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(lengths.len() + 1);
        offsets.push(0);
        let mut acc = 0;
        for &l in lengths {
            acc += l;
            offsets.push(acc);
        }
        Self { offsets, owners: OnceLock::new() }
    }

    /// The segment that owns each element (`total_len` entries), built on
    /// first call and kept for every later one.
    pub fn owners(&self) -> &[u32] {
        self.owners.get_or_init(|| {
            let mut owners = vec![u32::MAX; self.total_len()];
            for s in 0..self.num_segments() {
                owners[self.range(s)].fill(s as u32); // lint:allow(lossy-cast) -- segment ids fit the u32 index domain
            }
            owners
        })
    }

    pub fn num_segments(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of elements covered.
    pub fn total_len(&self) -> usize {
        *self.offsets.last().expect("non-empty by construction") // lint:allow(expect) -- non-empty by construction
    }

    /// The raw offset array (`num_segments + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    #[inline]
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.offsets[s]..self.offsets[s + 1]
    }

    #[inline]
    pub fn len_of(&self, s: usize) -> usize {
        self.offsets[s + 1] - self.offsets[s]
    }
}

/// One row index per edge (say, each message's source node), with its
/// by-target order: for each row, the edges that address it, ascending.
///
/// The gather kernels read rows through the list. Their backward passes
/// fold each row's gradient over the edges that address it, walking the
/// by-target order, where a scatter would add edge by edge into random
/// rows. The order is one counting sort, built on first use and kept for
/// every later call. The list also records its largest index, so a
/// kernel's bounds check is one comparison. A list that is already
/// grouped, such as the destinations of a message layout, sorts to the
/// identity order with its segments as offsets.
#[derive(Clone, Debug)]
pub struct EdgeIndex {
    idx: Vec<u32>,
    /// One past the largest index; 0 for an empty list.
    bound: usize,
    by_target: OnceLock<ByTarget>,
}

/// Row `t`'s edges are `edges[offsets[t]..offsets[t + 1]]`, ascending.
#[derive(Clone, Debug)]
struct ByTarget {
    offsets: Vec<usize>,
    edges: Vec<u32>,
}

impl EdgeIndex {
    /// Wraps `idx`; the by-target order is built on first use.
    pub fn new(idx: Vec<u32>) -> Self {
        let bound = idx.iter().max().map_or(0, |&m| m as usize + 1); // lint:allow(lossy-cast) -- u32 index widens losslessly
        Self { idx, bound, by_target: OnceLock::new() }
    }

    /// [`EdgeIndex::new`] with the by-target order built now, for lists
    /// that are built once per graph and read by every training step.
    pub fn with_order(idx: Vec<u32>) -> Self {
        let index = Self::new(idx);
        index.by_target();
        index
    }

    /// One past the largest index (0 for an empty list): the list
    /// addresses only rows below it.
    #[inline]
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// The edges that address row `t`, in ascending edge order; empty for
    /// rows at or past [`EdgeIndex::bound`].
    #[inline]
    pub fn edges_into(&self, t: usize) -> &[u32] {
        let order = self.by_target();
        match order.offsets.get(t..t + 2) {
            Some(&[start, end]) => &order.edges[start..end],
            _ => &[],
        }
    }

    fn by_target(&self) -> &ByTarget {
        self.by_target.get_or_init(|| {
            let mut offsets = vec![0usize; self.bound + 1];
            for &t in &self.idx {
                offsets[t as usize + 1] += 1; // lint:allow(lossy-cast) -- u32 index widens losslessly
            }
            for t in 1..offsets.len() {
                offsets[t] += offsets[t - 1];
            }
            let mut cursor = offsets.clone();
            let mut edges = vec![0u32; self.idx.len()];
            for (e, &t) in self.idx.iter().enumerate() {
                let at = &mut cursor[t as usize]; // lint:allow(lossy-cast) -- u32 index widens losslessly
                edges[*at] = e as u32; // lint:allow(lossy-cast) -- edge ids fit the u32 index domain
                *at += 1;
            }
            ByTarget { offsets, edges }
        })
    }

    /// Panics with `"{what} index out of bounds (source has {rows} rows)"`
    /// unless every index addresses one of `rows` rows.
    fn assert_within(&self, what: &str, rows: usize) {
        assert!(self.bound <= rows, "{what} index out of bounds (source has {rows} rows)");
    }
}

impl Deref for EdgeIndex {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.idx
    }
}

/// A `rows x cols` matrix whose row `t` is folded over the edges that
/// address it (`idx.edges_into(t)`, ascending): `fold(t, edges, j, acc)`
/// fills one column block of row `t` from `+0`, as [`by_blocks`] does.
/// Rows are owned by one worker each, so the result is bitwise the same
/// at any thread count.
fn fold_by_target(
    idx: &EdgeIndex,
    rows: usize,
    cols: usize,
    fold: impl Fn(usize, &[u32], usize, &mut [f32]) + Sync,
) -> Matrix {
    // Scratch: every row is folded from +0 and stored whole, rows that no
    // edge addresses included.
    let mut g = pool::scratch(rows, cols);
    if cols == 0 {
        return g;
    }
    let run = |trange: Range<usize>, chunk: &mut [f32]| {
        for (grow, t) in chunk.chunks_exact_mut(cols).zip(trange) {
            let edges = idx.edges_into(t);
            by_blocks(grow, |j, acc| fold(t, edges, j, acc));
        }
    };
    // Built here, on the calling thread, not raced for by the workers.
    idx.by_target();
    parallel_rows(rows, cols, idx.len() * cols, g.data_mut(), run);
    g
}

/// `balanced_cuts` invariants, asserted at the partition call sites: the
/// offsets handed to [`parallel_ranges`] are the cumulative-weight array
/// the load balancer cuts on, so they must be non-decreasing and their
/// span must cover exactly the rows the kernel is about to process —
/// otherwise a cut could land inside a segment and split one item across
/// two workers.
#[inline]
fn debug_assert_partition(segs: &Segments, covered_rows: usize) {
    debug_assert!(
        segs.offsets().windows(2).all(|w| w[0] <= w[1]),
        "segment offsets must be non-decreasing"
    );
    debug_assert_eq!(
        segs.total_len(),
        covered_rows,
        "segments must cover exactly the partitioned rows"
    );
}

/// Books one kernel call's count of tiny per-edge factors (`α`, or
/// `gather_dot`'s upstream score gradient) as the counter `name`, when
/// telemetry is active. Tiny factors are the ones whose products take the
/// exact path ([`Exact`]); a saturated softmax shows up as a large count.
fn book_tiny(name: &str, factors: &[f32]) {
    if sane_telemetry::active() {
        let n = factors.iter().filter(|&&a| is_tiny(a)).count() as u64; // lint:allow(lossy-cast) -- usize widens losslessly into u64
        sane_telemetry::counter_add(name, n);
    }
}

/// `*a *= inv` for one edge's unnormalised softmax weight. A tiny weight
/// takes the exact product and returns its normalised value widened, so
/// the edge's other products follow the same once-per-edge decision.
#[inline]
fn normalise(a: &mut f32, inv: f32) -> Option<Exact> {
    match Exact::tiny(*a) {
        Some(w) => {
            *a = w.mul(inv);
            Some(Exact::new(*a))
        }
        None => {
            *a *= inv;
            None
        }
    }
}

/// Gathers rows of the input according to a fixed index list.
struct GatherRowsOp {
    idx: Arc<EdgeIndex>,
}
impl Op for GatherRowsOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let (rows, cols) = inputs[0].shape();
        let g = grad.data();
        // Each source row sums the gradient rows of the edges that read
        // it, from +0 in ascending edge order: the serial scatter-add's
        // order for every element.
        let gx = fold_by_target(&self.idx, rows, cols, |_, edges, j, acc| {
            let width = acc.len();
            for &e in edges {
                let at = e as usize * cols + j; // lint:allow(lossy-cast) -- u32 edge id widens losslessly
                for (o, &v) in acc.iter_mut().zip(&g[at..at + width]) {
                    *o += v;
                }
            }
        });
        vec![Some(gx)]
    }
    fn name(&self) -> &'static str {
        "gather_rows"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (rows, cols) = inputs[0];
        require_in_bounds("gather_rows", &self.idx, rows)?;
        Ok((self.idx.len(), cols))
    }
}

struct SegmentSumOp {
    segs: Arc<Segments>,
}
impl Op for SegmentSumOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let (rows, cols) = inputs[0].shape();
        let segs = &self.segs;
        // Scratch, not zeros: the segments partition the rows, so every edge
        // row is written exactly once by the broadcast below.
        let mut g = pool::scratch(rows, cols);
        let run = |srange: Range<usize>, chunk: &mut [f32]| {
            let base = segs.offsets()[srange.start];
            for s in srange {
                let grow = grad.row(s);
                for e in segs.range(s) {
                    let r = e - base;
                    chunk[r * cols..(r + 1) * cols].copy_from_slice(grow);
                }
            }
        };
        debug_assert_partition(segs, rows);
        parallel_ranges(
            segs.offsets(),
            &|s| segs.offsets()[s] * cols,
            rows * cols,
            g.data_mut(),
            run,
        );
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "segment_sum"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (rows, cols) = inputs[0];
        require_segment_cover("segment_sum", &self.segs, rows)?;
        Ok((self.segs.num_segments(), cols))
    }
}

struct SegmentMeanOp {
    segs: Arc<Segments>,
}
impl Op for SegmentMeanOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let (rows, cols) = inputs[0].shape();
        let segs = &self.segs;
        // Scratch is safe despite the empty-segment `continue`: a segment
        // with no edges owns no rows, so coverage of the buffer is complete.
        let mut g = pool::scratch(rows, cols);
        let run = |srange: Range<usize>, chunk: &mut [f32]| {
            let base = segs.offsets()[srange.start];
            for s in srange {
                let n = segs.len_of(s);
                if n == 0 {
                    continue;
                }
                let scale = 1.0 / n as f32; // lint:allow(lossy-cast) -- count stays far below 2^24
                let grow = grad.row(s);
                for e in segs.range(s) {
                    let r = e - base;
                    for (o, &v) in chunk[r * cols..(r + 1) * cols].iter_mut().zip(grow) {
                        *o = v * scale;
                    }
                }
            }
        };
        debug_assert_partition(segs, rows);
        parallel_ranges(
            segs.offsets(),
            &|s| segs.offsets()[s] * cols,
            rows * cols,
            g.data_mut(),
            run,
        );
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "segment_mean"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (rows, cols) = inputs[0];
        require_segment_cover("segment_mean", &self.segs, rows)?;
        Ok((self.segs.num_segments(), cols))
    }
}

struct SegmentMaxOp {
    segs: Arc<Segments>,
    /// Source row of each segmented element, when the elements are rows of
    /// a node-level input read through an index list rather than the
    /// input's own rows.
    idx: Option<Arc<EdgeIndex>>,
    /// Winning element index per `(segment, column)`, `u32::MAX` for empty segments.
    winners: Arc<Vec<u32>>,
}
impl Op for SegmentMaxOp {
    fn backward(
        &self,
        out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let (rows, cols) = inputs[0].shape();
        let segs = &self.segs;
        let winners = &self.winners;
        let mut g = pool::zeros(rows, cols);
        if let Some(idx) = &self.idx {
            // The chain this replaces scatters each winner's gradient into a
            // zeroed `E x c` plane, then adds every plane row into its source
            // row in edge order. Several edges may share a source row, so the
            // scatter is serial; segments run in order, so each target sees
            // its edges ascending. The plane's `0 + g` turns a `-0` into `+0`;
            // its zero entries are exact no-ops on a sum that starts at `+0`.
            // A by-source fold would test every edge's winner per column,
            // where this touches only the winners: it stays a scatter.
            for s in 0..segs.num_segments() {
                for c in 0..cols {
                    let w = winners[s * cols + c];
                    if w != u32::MAX {
                        let target = idx[w as usize] as usize; // lint:allow(lossy-cast) -- u32 indices widen losslessly
                        g.data_mut()[target * cols + c] += 0.0 + grad.get(s, c);
                    }
                }
            }
            return vec![Some(g)];
        }
        // A segment's winners all lie inside the segment's own row range,
        // so segment-boundary chunks scatter disjointly.
        let run = |srange: Range<usize>, chunk: &mut [f32]| {
            let base = segs.offsets()[srange.start];
            for s in srange {
                for c in 0..cols {
                    let w = winners[s * cols + c];
                    if w != u32::MAX {
                        chunk[(w as usize - base) * cols + c] += grad.get(s, c);
                        // lint:allow(lossy-cast) -- u32 index widens losslessly
                    }
                }
            }
        };
        debug_assert_partition(segs, rows);
        parallel_ranges(
            segs.offsets(),
            &|s| segs.offsets()[s] * cols,
            out.rows() * cols,
            g.data_mut(),
            run,
        );
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "segment_max"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (rows, cols) = inputs[0];
        match &self.idx {
            Some(idx) => {
                require_segment_cover("segment_max indices", &self.segs, idx.len())?;
                require_in_bounds("segment_max", idx, rows)?;
            }
            None => require_segment_cover("segment_max", &self.segs, rows)?,
        }
        Ok((self.segs.num_segments(), cols))
    }
}

/// Softmax within each segment of an `n x 1` score column.
struct SegmentSoftmaxOp {
    segs: Arc<Segments>,
}
impl Op for SegmentSoftmaxOp {
    fn backward(
        &self,
        out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let segs = &self.segs;
        // Scratch: every edge row of the score column is assigned below.
        let mut g = pool::scratch(out.rows(), 1);
        let run = |srange: Range<usize>, chunk: &mut [f32]| {
            let base = segs.offsets()[srange.start];
            for s in srange {
                let range = segs.range(s);
                let dot: f32 = range.clone().map(|e| out.get(e, 0) * grad.get(e, 0)).sum();
                for e in range {
                    let p = out.get(e, 0);
                    chunk[e - base] = p * (grad.get(e, 0) - dot);
                }
            }
        };
        debug_assert_partition(segs, out.rows());
        parallel_ranges(segs.offsets(), &|s| segs.offsets()[s], 3 * out.rows(), g.data_mut(), run);
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "segment_softmax"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (rows, cols) = inputs[0];
        require_eq("segment_softmax: expects an n x 1 score column", cols, 1)?;
        require_segment_cover("segment_softmax", &self.segs, rows)?;
        Ok((rows, 1))
    }
}

/// Fused attention aggregation over one segment axis: softmax of an
/// `E x 1` score column within each segment, immediately applied as row
/// weights over `E x d` messages. One forward kernel, one backward kernel,
/// no `alpha`/`exp` tensors on the tape.
struct SegmentAttentionOp {
    segs: Arc<Segments>,
    /// Normalised attention weight per edge (`E x 1`), saved by the forward
    /// pass. Op-private state, so the backward pass needs neither the scores
    /// nor the output value — only the messages.
    alpha: Matrix,
}
impl Drop for SegmentAttentionOp {
    fn drop(&mut self) {
        // `alpha` is a pooled buffer living inside the op rather than as a
        // node value, so tape teardown cannot see it; hand it back here to
        // keep steady-state training steps allocation-free.
        pool::put(std::mem::replace(&mut self.alpha, Matrix::from_vec(0, 0, Vec::new())));
    }
}
impl Op for SegmentAttentionOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let (rows, cols) = inputs[1].shape();
        let msgs = inputs[1];
        let segs = &self.segs;
        let alpha = self.alpha.data();
        // Scratch, not zeros: the first sweep below assigns every edge's
        // score slot and message row exactly once (empty segments own no
        // rows), so the ~3x-wide memset would be pure memory traffic.
        let mut gs = pool::scratch(rows, 1);
        let mut gm = pool::scratch(rows, cols);
        // Per segment s with upstream row g = grad[s,:]:
        //   d_alpha[e]   = <messages[e,:], g>
        //   d_score[e]   = alpha[e] * (d_alpha[e] - Σ_e alpha[e]·d_alpha[e])
        //   d_message[e] = alpha[e] * g
        // Both gradients scatter only into the segment's own edge rows, so
        // the pair partition at segment boundaries writes disjointly.
        let fl = crate::simd::flavour();
        let run = |srange: Range<usize>, mchunk: &mut [f32], schunk: &mut [f32]| {
            let base = segs.offsets()[srange.start];
            for s in srange {
                let range = segs.range(s);
                if range.is_empty() {
                    continue;
                }
                let grow = grad.row(s);
                let sseg = &mut schunk[range.start - base..range.end - base];
                if cols == 0 {
                    // Zero-width messages: every gradient dot is zero.
                    sseg.fill(0.0);
                    continue;
                }
                // One pass over the wide `E x d` rows: d_message is
                // independent of the segment reduction, so only the narrow
                // score column needs the second sweep once dot_s is known.
                let mut dot_s = 0.0f32;
                // Contiguous slabs for the segment's message rows and their
                // gradient rows; `chunks_exact` avoids per-edge `row()` calls.
                let seg_msgs = &msgs.data()[range.start * cols..range.end * cols];
                let seg_gm = &mut mchunk[(range.start - base) * cols..(range.end - base) * cols];
                let aseg_w = &alpha[range];
                for (((mrow_src, mrow_dst), &a), slot) in seg_msgs
                    .chunks_exact(cols)
                    .zip(seg_gm.chunks_exact_mut(cols))
                    .zip(aseg_w)
                    .zip(sseg.iter_mut())
                {
                    // A saturated weight's `a · g` row goes through the
                    // exact product; `dot_scale` is `dot` plus `scale`.
                    let da = match Exact::tiny(a) {
                        Some(w) => {
                            w.scale(grow, mrow_dst);
                            fl.dot(mrow_src, grow)
                        }
                        None => fl.dot_scale(mrow_src, grow, a, mrow_dst),
                    };
                    *slot = da;
                    dot_s += edge_mul(a, da);
                }
                for (slot, &a) in sseg.iter_mut().zip(aseg_w) {
                    *slot = edge_mul(a, *slot - dot_s);
                }
            }
        };
        debug_assert_partition(segs, rows);
        parallel_ranges_pair(
            segs.offsets(),
            &|s| segs.offsets()[s] * cols,
            &|s| segs.offsets()[s],
            rows * (cols + 3),
            gm.data_mut(),
            gs.data_mut(),
            run,
        );
        book_tiny("exact_edges.segment_attention.backward", alpha);
        vec![Some(gs), Some(gm)]
    }
    fn name(&self) -> &'static str {
        "segment_attention"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(2)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (s, m) = (inputs[0], inputs[1]);
        require_eq("segment_attention: expects an n x 1 score column", s.1, 1)?;
        require_segment_cover("segment_attention scores", &self.segs, s.0)?;
        require_segment_cover("segment_attention messages", &self.segs, m.0)?;
        Ok((self.segs.num_segments(), m.1))
    }
}

/// [`SegmentAttentionOp`] with the message gather folded in: messages are
/// rows of a node-level `N x d` tensor addressed through a fixed index
/// list, so the `E x d` gathered plane never materialises — neither
/// forward (rows are read straight from the source) nor backward (each
/// node's gradient row sums its edges' weighted upstream rows).
struct GatherAttentionOp {
    idx: Arc<EdgeIndex>,
    segs: Arc<Segments>,
    /// Normalised attention weight per edge (`E x 1`), saved by the
    /// forward pass; pooled op-private state like [`SegmentAttentionOp`].
    alpha: Matrix,
}
impl Drop for GatherAttentionOp {
    fn drop(&mut self) {
        pool::put(std::mem::replace(&mut self.alpha, Matrix::from_vec(0, 0, Vec::new())));
    }
}
impl Op for GatherAttentionOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let xv = inputs[1];
        let (nrows, cols) = xv.shape();
        let segs = &self.segs;
        let alpha = self.alpha.data();
        // The same arithmetic, in the same order, as `gather_rows` +
        // `segment_attention`, so both gradients are bitwise theirs. They
        // share no arithmetic, so either may be skipped. A saturated
        // weight's products go through the exact product (`edge_mul`,
        // `edge_add_scaled`), bit for bit the same.
        let gs = wants[0].then(|| {
            // Scratch: every edge's slot is written once, in its segment's
            // sweep. The dot accumulation matches `dot_scale`'s.
            let mut gs = pool::scratch(segs.total_len(), 1);
            let fl = crate::simd::flavour();
            let run = |srange: Range<usize>, chunk: &mut [f32]| {
                let base = segs.offsets()[srange.start];
                for s in srange {
                    let range = segs.range(s);
                    let sseg = &mut chunk[range.start - base..range.end - base];
                    if cols == 0 {
                        sseg.fill(0.0);
                        continue;
                    }
                    let (aseg, iseg) = (&alpha[range.clone()], &self.idx[range]);
                    // Every edge of the segment dots against one upstream row.
                    let rows = |k: usize| xv.row(iseg[k] as usize); // lint:allow(lossy-cast) -- u32 row index widens losslessly into usize
                    fl.dots(rows, grad.row(s), sseg);
                    let mut dot_s = 0.0f32;
                    for (&da, &a) in sseg.iter().zip(aseg) {
                        dot_s += edge_mul(a, da);
                    }
                    for (slot, &a) in sseg.iter_mut().zip(aseg) {
                        *slot = edge_mul(a, *slot - dot_s);
                    }
                }
            };
            debug_assert_partition(segs, segs.total_len());
            let work = segs.total_len() * (cols + 2);
            parallel_ranges(segs.offsets(), &|s| segs.offsets()[s], work, gs.data_mut(), run);
            gs
        });
        // Each node row sums `α_e · grad[s_e,:]` over the edges that read
        // it, from +0 in ascending edge order: the unfused scatter's order,
        // since it walks the edges in order too.
        let gx = wants[1].then(|| {
            let (owners, g) = (segs.owners(), grad.data());
            fold_by_target(&self.idx, nrows, cols, |_, edges, j, acc| {
                for &e in edges {
                    let e = e as usize; // lint:allow(lossy-cast) -- u32 edge id widens losslessly
                    let at = owners[e] as usize * cols + j; // lint:allow(lossy-cast) -- u32 segment id widens losslessly
                    edge_add_scaled(alpha[e], &g[at..at + acc.len()], acc);
                }
            })
        });
        book_tiny("exact_edges.gather_attention.backward", alpha);
        vec![gs, gx]
    }
    fn name(&self) -> &'static str {
        "gather_attention"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(2)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (s, x) = (inputs[0], inputs[1]);
        require_eq("gather_attention: expects an n x 1 score column", s.1, 1)?;
        require_segment_cover("gather_attention scores", &self.segs, s.0)?;
        require_segment_cover("gather_attention indices", &self.segs, self.idx.len())?;
        require_in_bounds("gather_attention", &self.idx, x.0)?;
        Ok((self.segs.num_segments(), x.1))
    }
}

/// The per-edge inner product `Σ_c x[src[e],c] · x[dst[e],c]`, replacing
/// `gather_rows` ×2 → `mul` → `row_sum`. Wired `[x, x]`: the first input
/// is the destination side, the second the source side (see
/// [`Tape::gather_dot`]).
struct GatherDotOp {
    src: Arc<EdgeIndex>,
    dst: Arc<EdgeIndex>,
}
impl Op for GatherDotOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let x = inputs[0];
        let (rows, cols) = x.shape();
        let (ge, xd) = (grad.data(), x.data());
        // Each side is `gather_rows`' scatter-add, over edges in order, of
        // `mul`'s `g · x[other side]` (a plain product, no FMA), folded per
        // target row over the edges that address it, ascending. Under a
        // saturated softmax many `g` are tiny; those edges take the exact
        // product, bit for bit the same.
        let side = |to: &EdgeIndex, other: &EdgeIndex| {
            fold_by_target(to, rows, cols, |_, edges, j, acc| {
                for &e in edges {
                    let e = e as usize; // lint:allow(lossy-cast) -- u32 edge id widens losslessly
                    let at = other[e] as usize * cols + j; // lint:allow(lossy-cast) -- u32 row index widens losslessly
                    edge_add_scaled(ge[e], &xd[at..at + acc.len()], acc);
                }
            })
        };
        book_tiny("exact_edges.gather_dot.backward", grad.data());
        vec![
            wants[0].then(|| side(&self.dst, &self.src)),
            wants[1].then(|| side(&self.src, &self.dst)),
        ]
    }
    fn name(&self) -> &'static str {
        "gather_dot"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(2)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        require_eq("gather_dot: both sides read one tensor", inputs[0], inputs[1])?;
        require_eq("gather_dot: source vs target indices", self.src.len(), self.dst.len())?;
        require_in_bounds("gather_dot sources", &self.src, inputs[1].0)?;
        require_in_bounds("gather_dot targets", &self.dst, inputs[0].0)?;
        Ok((self.src.len(), 1))
    }
}

/// Edges whose score chains [`Tape::gen_linear_score`] interleaves.
const EDGE_BLOCK: usize = 8;

/// The GAT-GEN-LINEAR edge score `w · tanh(ps[src[e],:] + pd[dst[e],:])`
/// in one op, replacing `gather_rows` ×2 → `add` → `tanh` → `matmul`.
struct GenLinearScoreOp {
    src: Arc<EdgeIndex>,
    dst: Arc<EdgeIndex>,
    /// The `E x d` tanh plane, saved by the forward pass; pooled op-private
    /// state like the attention ops' `alpha`.
    tanh: Matrix,
}
impl Drop for GenLinearScoreOp {
    fn drop(&mut self) {
        pool::put(std::mem::replace(&mut self.tanh, Matrix::from_vec(0, 0, Vec::new())));
    }
}
impl Op for GenLinearScoreOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let d = self.tanh.cols();
        let w = inputs[2].data();
        // The projection gradients are scatter-adds over arbitrary node rows
        // (zeros, serial, edge order, as in `gather_rows`); `d gen_out`
        // accumulates over edges from zero, as `matmul_at_b` does.
        let mut gs = wants[0].then(|| pool::zeros(inputs[0].rows(), d));
        let mut gd = wants[1].then(|| pool::zeros(inputs[1].rows(), d));
        let mut gw = wants[2].then(|| pool::zeros(d, 1));
        let wants_dz = gs.is_some() || gd.is_some();
        if d == 0 || !(wants_dz || gw.is_some()) {
            return vec![gs, gd, gw];
        }
        // Same arithmetic, same order as the chain it replaces, per edge e
        // with upstream dS = grad[e]:
        //   d t[k]       = madd(dS, w[k], 0)    (`matmul_a_bt`, k = 1)
        //   dz[k]        = d t[k] · (1 − t[k]²) (`tanh` backward)
        //   d gen_out[k] = madd(t[k], dS, ·)    (`matmul_at_b`, edge order)
        let fl = crate::simd::flavour();
        let mut dz = pool::scratch(1, d);
        let edges = self.tanh.data().chunks_exact(d).zip(grad.data());
        for ((trow, &ds), (&u, &v)) in edges.zip(self.src.iter().zip(self.dst.iter())) {
            if let Some(gw) = gw.as_mut() {
                fl.axpy(ds, trow, gw.data_mut());
            }
            if !wants_dz {
                continue;
            }
            for ((z, &t), &wk) in dz.data_mut().iter_mut().zip(trow).zip(w) {
                *z = fl.madd(ds, wk, 0.0) * (1.0 - t * t);
            }
            if let Some(gs) = gs.as_mut() {
                crate::simd::add_assign(dz.data(), gs.row_mut(u as usize)); // lint:allow(lossy-cast) -- u32 row index widens losslessly into usize
            }
            if let Some(gd) = gd.as_mut() {
                crate::simd::add_assign(dz.data(), gd.row_mut(v as usize)); // lint:allow(lossy-cast) -- u32 row index widens losslessly into usize
            }
        }
        pool::put(dz);
        vec![gs, gd, gw]
    }
    fn name(&self) -> &'static str {
        "gen_linear_score"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(3)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (s, t, w) = (inputs[0], inputs[1], inputs[2]);
        require_eq("gen_linear_score: projection widths", s.1, t.1)?;
        require_eq("gen_linear_score: gen_out must be a width x 1 column", w, (s.1, 1))?;
        require_eq("gen_linear_score: source vs target indices", self.src.len(), self.dst.len())?;
        require_in_bounds("gen_linear_score sources", &self.src, s.0)?;
        require_in_bounds("gen_linear_score targets", &self.dst, t.0)?;
        Ok((self.src.len(), 1))
    }
}

/// Scales row `i` of an `n x c` tensor by the scalar `w[i]` of an `n x 1`
/// tensor (attention weighting of gathered neighbor features).
struct MulColBroadcastOp;
impl Op for MulColBroadcastOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let (rows, cols) = inputs[0].shape();
        let (a, w) = (inputs[0], inputs[1]);
        // Scratch: the row loop assigns every element of both planes.
        let mut ga = pool::scratch(rows, cols);
        let mut gw = pool::scratch(rows, 1);
        let run = |rrange: Range<usize>, ac: &mut [f32], wc: &mut [f32]| {
            let base = rrange.start;
            for r in rrange {
                let wv = w.get(r, 0);
                let arow = a.row(r);
                let grow = grad.row(r);
                let garow = &mut ac[(r - base) * cols..(r - base + 1) * cols];
                let mut acc = 0.0;
                for ((gav, &g), &av) in garow.iter_mut().zip(grow).zip(arow) {
                    *gav = g * wv;
                    acc += g * av;
                }
                wc[r - base] = acc;
            }
        };
        parallel_rows_pair(rows, cols, 1, 2 * rows * cols, ga.data_mut(), gw.data_mut(), run);
        vec![Some(ga), Some(gw)]
    }
    fn name(&self) -> &'static str {
        "mul_col_broadcast"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(2)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (a, w) = (inputs[0], inputs[1]);
        require_eq("mul_col_broadcast: weights must be one column per input row", w, (a.0, 1))?;
        Ok(a)
    }
}

/// The forward kernel of both attention ops. Per segment: the softmax of
/// its scores into `alpha`, then the output row `Σ_e α_e · rows(e)` over
/// the segment's edges. Empty segments get a zero row. Both planes are
/// written through the pair partition at segment boundaries.
fn attention_forward<'a>(
    segs: &Segments,
    scores: &[f32],
    cols: usize,
    rows: impl Fn(usize) -> &'a [f32] + Sync,
    out: &mut [f32],
    alpha: &mut [f32],
) {
    let fl = crate::simd::flavour();
    with_madd!(fl, M => {
        let run = |srange: Range<usize>, ochunk: &mut [f32], achunk: &mut [f32]| {
            let obase = srange.start;
            let abase = segs.offsets()[srange.start];
            for s in srange {
                let range = segs.range(s);
                let orow = &mut ochunk[(s - obase) * cols..(s - obase + 1) * cols];
                if range.is_empty() {
                    orow.fill(0.0);
                    continue;
                }
                let aseg = &mut achunk[range.start - abase..range.end - abase];
                let seg_scores = &scores[range.clone()];
                let max = seg_scores.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
                for (a, &v) in aseg.iter_mut().zip(seg_scores) {
                    *a = v - max;
                }
                fl.exp(aseg);
                let mut sum = 0.0;
                for &a in aseg.iter() {
                    sum += a;
                }
                let inv = 1.0 / sum;
                let (first, rest) = aseg.split_first_mut().expect("non-empty segment"); // lint:allow(expect) -- empty segments return above
                let exact = normalise(first, inv);
                for a in rest.iter_mut() {
                    normalise(a, inv);
                }
                attend::<M>(first, exact, rest, |k| rows(range.start + k), orow);
            }
        };
        debug_assert_partition(segs, scores.len());
        parallel_ranges_pair(
            segs.offsets(),
            &|s| s * cols,
            &|s| segs.offsets()[s],
            segs.total_len() * (cols + 3),
            out,
            alpha,
            run,
        )
    })
}

/// One segment's weighted sum `out = Σ_k α_k · rows(k)`, each column block
/// folded in registers: the first edge's plain product (the exact product
/// when its weight was tiny), then one `madd` per further edge in edge
/// order. That is each element's order in the row-streaming `scale` +
/// `axpy` loop, so the bits are the same.
#[inline(always)]
fn attend<'a, M: Madd>(
    first: &f32,
    exact: Option<Exact>,
    rest: &[f32],
    rows: impl Fn(usize) -> &'a [f32],
    out: &mut [f32],
) {
    by_blocks(out, |j, acc| {
        let x0 = &rows(0)[j..j + acc.len()];
        match exact {
            Some(w) => {
                for (o, &v) in acc.iter_mut().zip(x0) {
                    *o = w.mul(v);
                }
            }
            None => {
                for (o, &v) in acc.iter_mut().zip(x0) {
                    *o = *first * v;
                }
            }
        }
        for (k, &a) in rest.iter().enumerate() {
            madd_into::<M>(a, &rows(k + 1)[j..j + acc.len()], acc);
        }
    });
}

impl Tape {
    /// Gathers rows of `a` by index (e.g. source-node features per edge).
    /// The backward pass sums each row's gradient over the edges that read
    /// it, in ascending edge order, which is the serial scatter-add's order.
    ///
    /// # Panics
    /// Panics if an index addresses no row of `a`.
    pub fn gather_rows(&mut self, a: Tensor, idx: &Arc<EdgeIndex>) -> Tensor {
        let av = self.value_arc(a);
        idx.assert_within("gather_rows", av.rows());
        let out = crate::parallel::timed("gather_rows", || av.gather_rows(idx));
        self.push_op(out, Box::new(GatherRowsOp { idx: Arc::clone(idx) }), vec![a])
    }

    fn check_segments(&self, a: Tensor, segs: &Segments, what: &str) {
        assert_eq!(
            self.value(a).rows(),
            segs.total_len(),
            "{what}: tensor has {} rows but segments cover {}",
            self.value(a).rows(),
            segs.total_len()
        );
    }

    /// Per-segment row sums: `total_len x c -> num_segments x c`.
    pub fn segment_sum(&mut self, a: Tensor, segs: &Arc<Segments>) -> Tensor {
        self.check_segments(a, segs, "segment_sum");
        let av = self.value_arc(a);
        let cols = av.cols();
        let mut out = pool::zeros(segs.num_segments(), cols);
        let run = |srange: Range<usize>, chunk: &mut [f32]| {
            if cols == 0 {
                return; // zero-width rows: nothing to reduce (and chunks_exact(0) is invalid)
            }
            for (si, s) in srange.enumerate() {
                let orow = &mut chunk[si * cols..(si + 1) * cols];
                let r = segs.range(s);
                // Segment rows are contiguous: stream the slab chunk-wise.
                for erow in av.data()[r.start * cols..r.end * cols].chunks_exact(cols) {
                    crate::simd::add_assign(erow, orow);
                }
            }
        };
        crate::parallel::timed("segment_sum", || {
            parallel_ranges(
                segs.offsets(),
                &|s| s * cols,
                segs.total_len() * cols,
                out.data_mut(),
                run,
            )
        });
        self.push_op(out, Box::new(SegmentSumOp { segs: Arc::clone(segs) }), vec![a])
    }

    /// Per-segment row means (empty segments yield zero rows).
    pub fn segment_mean(&mut self, a: Tensor, segs: &Arc<Segments>) -> Tensor {
        self.check_segments(a, segs, "segment_mean");
        let av = self.value_arc(a);
        let cols = av.cols();
        let mut out = pool::zeros(segs.num_segments(), cols);
        let run = |srange: Range<usize>, chunk: &mut [f32]| {
            if cols == 0 {
                return; // zero-width rows: nothing to reduce (and chunks_exact(0) is invalid)
            }
            for (si, s) in srange.enumerate() {
                let n = segs.len_of(s);
                if n == 0 {
                    continue;
                }
                let orow = &mut chunk[si * cols..(si + 1) * cols];
                let r = segs.range(s);
                for erow in av.data()[r.start * cols..r.end * cols].chunks_exact(cols) {
                    crate::simd::add_assign(erow, orow);
                }
                let scale = 1.0 / n as f32; // lint:allow(lossy-cast) -- count stays far below 2^24
                for o in orow {
                    *o *= scale;
                }
            }
        };
        crate::parallel::timed("segment_mean", || {
            parallel_ranges(
                segs.offsets(),
                &|s| s * cols,
                segs.total_len() * cols,
                out.data_mut(),
                run,
            )
        });
        self.push_op(out, Box::new(SegmentMeanOp { segs: Arc::clone(segs) }), vec![a])
    }

    /// Per-segment elementwise max (empty segments yield zero rows).
    ///
    /// With `idx`, element `e` is row `idx[e]` of `a`, so
    /// `segment_max(a, Some(idx), segs)` is bitwise equal, in value and
    /// gradient, to `segment_max(gather_rows(a, idx), None, segs)` while
    /// the `E x c` gathered plane never lands on the tape. Each
    /// `(segment, column)` keeps a strict `>` scan from `-inf` in element
    /// order either way, so the first maximum wins a tie and NaN never does.
    pub fn segment_max(
        &mut self,
        a: Tensor,
        idx: Option<&Arc<EdgeIndex>>,
        segs: &Arc<Segments>,
    ) -> Tensor {
        let av = self.value_arc(a);
        match idx {
            Some(idx) => {
                assert_eq!(
                    idx.len(),
                    segs.total_len(),
                    "segment_max: {} indices but segments cover {} elements",
                    idx.len(),
                    segs.total_len()
                );
                idx.assert_within("segment_max", av.rows());
            }
            None => self.check_segments(a, segs, "segment_max"),
        }
        let cols = av.cols();
        let nseg = segs.num_segments();
        let mut out = pool::zeros(nseg, cols);
        let mut winners = vec![u32::MAX; nseg * cols];
        if cols > 0 {
            let run = |srange: Range<usize>, ochunk: &mut [f32], wchunk: &mut [u32]| {
                for (si, s) in srange.enumerate() {
                    if segs.len_of(s) == 0 {
                        continue;
                    }
                    // Row by row, each column keeping its own running max:
                    // per column this is the same scan in the same order as
                    // walking the column, without the strided reads.
                    let best = &mut ochunk[si * cols..(si + 1) * cols];
                    let best_e = &mut wchunk[si * cols..(si + 1) * cols];
                    best.fill(f32::NEG_INFINITY);
                    for e in segs.range(s) {
                        let row = av.row(idx.map_or(e, |idx| idx[e] as usize)); // lint:allow(lossy-cast) -- u32 index widens losslessly
                        for ((b, w), &v) in best.iter_mut().zip(best_e.iter_mut()).zip(row) {
                            if v > *b {
                                *b = v;
                                *w = e as u32; // lint:allow(lossy-cast) -- edge ids fit the u32 CSR domain
                            }
                        }
                    }
                }
            };
            crate::parallel::timed("segment_max", || {
                parallel_ranges_pair(
                    segs.offsets(),
                    &|s| s * cols,
                    &|s| s * cols,
                    segs.total_len() * cols,
                    out.data_mut(),
                    &mut winners,
                    run,
                )
            });
        }
        self.push_op(
            out,
            Box::new(SegmentMaxOp {
                segs: Arc::clone(segs),
                idx: idx.map(Arc::clone),
                winners: Arc::new(winners),
            }),
            vec![a],
        )
    }

    /// Numerically-stable softmax over each segment of an `n x 1` score
    /// column — the attention normalisation over each node's in-edges.
    pub fn segment_softmax(&mut self, scores: Tensor, segs: &Arc<Segments>) -> Tensor {
        self.check_segments(scores, segs, "segment_softmax");
        assert_eq!(self.value(scores).cols(), 1, "segment_softmax expects an n x 1 score column");
        let sv = self.value_arc(scores);
        let mut out = pool::clone_of(&sv);
        let run = |srange: Range<usize>, chunk: &mut [f32]| {
            let base = segs.offsets()[srange.start];
            for s in srange {
                let range = segs.range(s);
                if range.is_empty() {
                    continue;
                }
                let seg = &mut chunk[range.start - base..range.end - base];
                let max = seg.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
                let mut sum = 0.0;
                for v in seg.iter_mut() {
                    *v = (*v - max).exp();
                    sum += *v;
                }
                for v in seg {
                    *v /= sum;
                }
            }
        };
        crate::parallel::timed("segment_softmax", || {
            parallel_ranges(
                segs.offsets(),
                &|s| segs.offsets()[s],
                3 * segs.total_len(),
                out.data_mut(),
                run,
            )
        });
        self.push_op(out, Box::new(SegmentSoftmaxOp { segs: Arc::clone(segs) }), vec![scores])
    }

    /// Fused attention aggregation: numerically-stable softmax over each
    /// segment of the `E x 1` `scores` column, applied in the same kernel
    /// as row weights over the `E x d` `messages` —
    /// `out[s,:] = Σ_{e∈s} α[e] · messages[e,:]`.
    ///
    /// Replaces the `segment_softmax` → `mul_col_broadcast` → `segment_sum`
    /// chain with one op: no `alpha`, `exp` or weighted `E x d`
    /// intermediate ever lands on the tape, and the backward pass emits
    /// both gradients in a single sweep. The normalised weights live in
    /// op-private state, so the backward pass never reads the scores.
    ///
    /// The forward kernel writes two planes — the `num_segments x d` output
    /// and the per-edge weight column — through the pair partition, which
    /// proves and shadow-audits both write patterns at segment boundaries.
    pub fn segment_attention(
        &mut self,
        scores: Tensor,
        messages: Tensor,
        segs: &Arc<Segments>,
    ) -> Tensor {
        self.check_segments(scores, segs, "segment_attention");
        self.check_segments(messages, segs, "segment_attention");
        assert_eq!(self.value(scores).cols(), 1, "segment_attention expects an n x 1 score column");
        let sv = self.value_arc(scores);
        let mv = self.value_arc(messages);
        let cols = mv.cols();
        // Both planes are scratch: every segment's output row is written
        // below (empty segments explicitly zero-filled), and every edge's
        // alpha slot is assigned by the softmax sweep.
        let mut out = pool::scratch(segs.num_segments(), cols);
        let mut alpha = pool::scratch(segs.total_len(), 1);
        // The segment's message rows are contiguous.
        let m = mv.data();
        let rows = |e: usize| &m[e * cols..(e + 1) * cols];
        crate::parallel::timed("segment_attention", || {
            attention_forward(segs, sv.data(), cols, rows, out.data_mut(), alpha.data_mut())
        });
        book_tiny("exact_edges.segment_attention.forward", alpha.data());
        self.push_op(
            out,
            Box::new(SegmentAttentionOp { segs: Arc::clone(segs), alpha }),
            vec![scores, messages],
        )
    }

    /// [`Tape::segment_attention`] with the message gather folded in:
    /// `out[s,:] = Σ_{e∈s} α[e] · x[idx[e],:]` where `α` is the per-segment
    /// softmax of `scores`. Equivalent to
    /// `segment_attention(scores, gather_rows(x, idx), segs)` — bitwise, in
    /// both values and gradients — but the `E x d` gathered plane never
    /// exists: the forward pass reads source rows in place, and the
    /// backward pass sums `α[e] · grad[s,:]` straight into the node
    /// gradient, each node row over the edges that read it
    /// ([`EdgeIndex::edges_into`]). For edge counts well above the node
    /// count this removes
    /// the dominant memory streams of the attention step (the gather write,
    /// its re-read, and the mirrored pair in the backward pass).
    pub fn gather_attention(
        &mut self,
        scores: Tensor,
        x: Tensor,
        idx: &Arc<EdgeIndex>,
        segs: &Arc<Segments>,
    ) -> Tensor {
        self.check_segments(scores, segs, "gather_attention");
        assert_eq!(self.value(scores).cols(), 1, "gather_attention expects an n x 1 score column");
        assert_eq!(
            idx.len(),
            segs.total_len(),
            "gather_attention: {} indices but segments cover {} edges",
            idx.len(),
            segs.total_len()
        );
        let sv = self.value_arc(scores);
        let xv = self.value_arc(x);
        idx.assert_within("gather_attention", xv.rows());
        let cols = xv.cols();
        // Same scratch discipline and kernel as `segment_attention`, with
        // the message rows read in place through the index list: the same
        // order and arithmetic, so the output is bitwise gather + attention.
        let mut out = pool::scratch(segs.num_segments(), cols);
        let mut alpha = pool::scratch(segs.total_len(), 1);
        let rows = |e: usize| xv.row(idx[e] as usize); // lint:allow(lossy-cast) -- u32 row index widens losslessly into usize
        crate::parallel::timed("gather_attention", || {
            attention_forward(segs, sv.data(), cols, rows, out.data_mut(), alpha.data_mut())
        });
        book_tiny("exact_edges.gather_attention.forward", alpha.data());
        self.push_op(
            out,
            Box::new(GatherAttentionOp { idx: Arc::clone(idx), segs: Arc::clone(segs), alpha }),
            vec![scores, x],
        )
    }

    /// The per-edge inner products `out[e] = Σ_c x[src[e],c] · x[dst[e],c]`
    /// as one `E x 1` op (the GAT-COS score).
    ///
    /// Bitwise equal, in value and gradient, to
    /// `row_sum(mul(gather_rows(x, src), gather_rows(x, dst)))` in each
    /// [`crate::simd`] flavour: every edge sums its plain products with
    /// `Iterator::sum`, as `row_sum` does. The node is wired `[x, x]`,
    /// destination side first, so the reverse sweep adds the destination
    /// side's scatter into `x`'s gradient before the source side's, the
    /// order in which it visits the chain's two gathers. Neither `E x c`
    /// gathered plane, their product, nor any of their gradients lands on
    /// the tape.
    pub fn gather_dot(&mut self, x: Tensor, src: &Arc<EdgeIndex>, dst: &Arc<EdgeIndex>) -> Tensor {
        let xv = self.value_arc(x);
        assert_eq!(src.len(), dst.len(), "gather_dot: index lists differ in length");
        for idx in [src, dst] {
            idx.assert_within("gather_dot", xv.rows());
        }
        let edges = src.len();
        // Scratch: every edge's slot is assigned below.
        let mut out = pool::scratch(edges, 1);
        // Each edge's dot is the chain `Iterator::sum` folds; eight edges'
        // chains advance together.
        let run = |erange: Range<usize>, chunk: &mut [f32]| {
            let (us, vs) = (&src[erange.clone()], &dst[erange]);
            let row = |i: u32| xv.row(i as usize); // lint:allow(lossy-cast) -- u32 row indices widen losslessly into usize
            product_sums(chunk, |e| (row(us[e]), row(vs[e])));
        };
        crate::parallel::timed("gather_dot", || {
            parallel_rows(edges, 1, edges * xv.cols() * 2, out.data_mut(), run)
        });
        self.push_op(
            out,
            Box::new(GatherDotOp { src: Arc::clone(src), dst: Arc::clone(dst) }),
            vec![x, x],
        )
    }

    /// The GAT-GEN-LINEAR edge scores
    /// `score[e] = Σ_k gen_out[k] · tanh(proj_src[src[e],k] + proj_dst[dst[e],k])`
    /// as one `E x 1` op.
    ///
    /// Bitwise equal, in values and in all three gradients, to
    /// `matmul(tanh(add(gather_rows(proj_src, src), gather_rows(proj_dst,
    /// dst))), gen_out)` in each [`crate::simd`] flavour: the `tanh` is the
    /// flavour's, and each reduction of that chain (a `matmul` element with
    /// one output column, `matmul_a_bt` with k = 1, `matmul_at_b`'s
    /// in-order fold over edges, `gather_rows`' serial scatter) is a
    /// serial in-order `madd`/`axpy` chain this op repeats term for term.
    /// None of the four `E x d` planes of that chain, nor their gradients,
    /// lands on the tape; the op keeps only the tanh plane, for its
    /// backward pass.
    pub fn gen_linear_score(
        &mut self,
        proj_src: Tensor,
        proj_dst: Tensor,
        gen_out: Tensor,
        src: &Arc<EdgeIndex>,
        dst: &Arc<EdgeIndex>,
    ) -> Tensor {
        let ps = self.value_arc(proj_src);
        let pd = self.value_arc(proj_dst);
        let wv = self.value_arc(gen_out);
        let d = ps.cols();
        assert_eq!(pd.cols(), d, "gen_linear_score: projection widths differ");
        assert_eq!(wv.shape(), (d, 1), "gen_linear_score: gen_out must be {d} x 1");
        assert_eq!(src.len(), dst.len(), "gen_linear_score: index lists differ in length");
        for (idx, rows) in [(src, ps.rows()), (dst, pd.rows())] {
            idx.assert_within("gen_linear_score", rows);
        }
        let edges = src.len();
        // Both planes are scratch: every edge's tanh row and score slot is
        // assigned below (the scores by hand when d == 0).
        let mut tanh = pool::scratch(edges, d);
        let mut out = pool::scratch(edges, 1);
        if d == 0 {
            out.data_mut().fill(0.0);
        } else {
            let fl = crate::simd::flavour();
            let w = wv.data();
            let run = |erange: Range<usize>, tchunk: &mut [f32], ochunk: &mut [f32]| {
                let (us, vs) = (&src[erange.clone()], &dst[erange]);
                for ((trow, &u), &v) in tchunk.chunks_exact_mut(d).zip(us).zip(vs) {
                    let (a, b) = (ps.row(u as usize), pd.row(v as usize)); // lint:allow(lossy-cast) -- u32 row indices widen losslessly into usize
                    for ((t, &x), &y) in trow.iter_mut().zip(a).zip(b) {
                        *t = x + y;
                    }
                }
                fl.tanh(tchunk);
                // One serial chain per edge, as `matmul` folds a row
                // against a single output column. Eight edges advance
                // together so their independent chains overlap instead of
                // waiting out each other's FMA latency.
                let mut blocks = ochunk.chunks_exact_mut(EDGE_BLOCK);
                let mut planes = tchunk.chunks_exact(EDGE_BLOCK * d);
                for (o, plane) in (&mut blocks).zip(&mut planes) {
                    let mut acc = [0.0f32; EDGE_BLOCK];
                    for (k, &wk) in w.iter().enumerate() {
                        for (l, a) in acc.iter_mut().enumerate() {
                            *a = fl.madd(plane[l * d + k], wk, *a);
                        }
                    }
                    o.copy_from_slice(&acc);
                }
                for (o, trow) in
                    blocks.into_remainder().iter_mut().zip(planes.remainder().chunks_exact(d))
                {
                    let mut acc = 0.0f32;
                    for (&t, &wk) in trow.iter().zip(w) {
                        acc = fl.madd(t, wk, acc);
                    }
                    *o = acc;
                }
            };
            crate::parallel::timed("gen_linear_score", || {
                parallel_rows_pair(edges, d, 1, edges * d * 8, tanh.data_mut(), out.data_mut(), run)
            });
        }
        self.push_op(
            out,
            Box::new(GenLinearScoreOp { src: Arc::clone(src), dst: Arc::clone(dst), tanh }),
            vec![proj_src, proj_dst, gen_out],
        )
    }

    /// Row-wise scaling of an `n x c` tensor by an `n x 1` weight column.
    pub fn mul_col_broadcast(&mut self, a: Tensor, w: Tensor) -> Tensor {
        let av = self.value_arc(a);
        let wv = self.value_arc(w);
        let (rows, cols) = av.shape();
        assert_eq!(wv.shape(), (rows, 1), "weights must be {rows} x 1");
        // Scratch: every row is scaled into place (zero-length when cols == 0).
        let mut out = pool::scratch(rows, cols);
        if cols > 0 {
            let run = |rrange: Range<usize>, chunk: &mut [f32]| {
                let base = rrange.start;
                for r in rrange {
                    let orow = &mut chunk[(r - base) * cols..(r - base + 1) * cols];
                    crate::simd::scale(wv.get(r, 0), av.row(r), orow);
                }
            };
            crate::parallel::timed("mul_col_broadcast", || {
                parallel_rows(rows, cols, rows * cols, out.data_mut(), run)
            });
        }
        self.push_op(out, Box::new(MulColBroadcastOp), vec![a, w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::{fused_vs_chain, Equivalence};
    use crate::tape::VarStore;

    fn segs(lengths: &[usize]) -> Arc<Segments> {
        Arc::new(Segments::from_lengths(lengths))
    }

    #[test]
    fn segments_from_lengths() {
        let s = Segments::from_lengths(&[2, 0, 3]);
        assert_eq!(s.num_segments(), 3);
        assert_eq!(s.total_len(), 5);
        assert_eq!(s.range(0), 0..2);
        assert_eq!(s.range(1), 2..2);
        assert_eq!(s.range(2), 2..5);
        assert_eq!(s.offsets(), &[0, 2, 2, 5]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn segments_reject_unsorted() {
        let _ = Segments::new(vec![0, 3, 1]);
    }

    #[test]
    fn gather_rows_backward_scatter_adds() {
        let mut store = VarStore::new();
        let a = store.add("a", Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        let mut tape = Tape::new(0);
        let ta = tape.param(&store, a);
        let idx = Arc::new(EdgeIndex::new(vec![0u32, 0, 1]));
        let g = tape.gather_rows(ta, &idx);
        assert_eq!(tape.value(g).data(), &[1.0, 1.0, 2.0]);
        let loss = tape.sum_all(g);
        let grads = tape.backward(loss);
        // Row 0 gathered twice => gradient 2.
        assert_eq!(grads.get(a).unwrap().data(), &[2.0, 1.0]);
    }

    #[test]
    fn segment_sum_and_mean_values() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(5, 1, vec![1.0, 2.0, 3.0, 4.0, 5.0]));
        let s = segs(&[2, 0, 3]);
        let sum = tape.segment_sum(x, &s);
        assert_eq!(tape.value(sum).data(), &[3.0, 0.0, 12.0]);
        let mean = tape.segment_mean(x, &s);
        assert_eq!(tape.value(mean).data(), &[1.5, 0.0, 4.0]);
    }

    #[test]
    fn segment_mean_grad_is_uniform_within_segment() {
        let mut store = VarStore::new();
        let a = store.add("a", Matrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]));
        let mut tape = Tape::new(0);
        let ta = tape.param(&store, a);
        let s = segs(&[4]);
        let m = tape.segment_mean(ta, &s);
        let loss = tape.sum_all(m);
        let g = tape.backward(loss);
        assert!(g.get(a).unwrap().data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn segment_max_values_and_grad() {
        let mut store = VarStore::new();
        let a =
            store.add("a", Matrix::from_vec(4, 2, vec![1.0, 9.0, 5.0, 2.0, 0.0, 0.0, -1.0, 3.0]));
        let mut tape = Tape::new(0);
        let ta = tape.param(&store, a);
        let s = segs(&[2, 2]);
        let m = tape.segment_max(ta, None, &s);
        assert_eq!(tape.value(m).data(), &[5.0, 9.0, 0.0, 3.0]);
        let loss = tape.sum_all(m);
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(5, 1, vec![10.0, 20.0, -5.0, 0.0, 5.0]));
        let s = segs(&[2, 3]);
        let p = tape.segment_softmax(x, &s);
        let v = tape.value(p);
        assert!((v.get(0, 0) + v.get(1, 0) - 1.0).abs() < 1e-5);
        assert!((v.get(2, 0) + v.get(3, 0) + v.get(4, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn segment_softmax_handles_extreme_scores() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 1, vec![1000.0, -1000.0]));
        let s = segs(&[2]);
        let p = tape.segment_softmax(x, &s);
        assert!(!tape.value(p).has_non_finite());
        assert!((tape.value(p).get(0, 0) - 1.0).abs() < 1e-6);
    }

    /// Smooth deterministic fixture values in `[-amp, amp]`.
    fn wave(rows: usize, cols: usize, salt: f32, amp: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.37 + salt).sin() * amp)
    }

    /// The fused kernel normalises by multiplying with `1/sum` where
    /// `segment_softmax` divides, and uses the vectorized `exp`, so it
    /// tracks the chain within a budget rather than bitwise.
    #[test]
    fn segment_attention_matches_unfused_chain() {
        // An empty segment among ragged lengths, and one whole-graph
        // segment (the attention-pooling readout).
        for lengths in [&[2, 0, 3][..], &[3, 0, 4, 2, 1], &[9]] {
            let s = segs(lengths);
            let e = s.total_len();
            let inputs = [wave(e, 1, 0.3, 4.0), wave(e, 5, 1.1, 2.0)];
            let fused = |t: &mut Tape, i: &[Tensor]| t.segment_attention(i[0], i[1], &s);
            let chain = |t: &mut Tape, i: &[Tensor]| {
                let alpha = t.segment_softmax(i[0], &s);
                let weighted = t.mul_col_broadcast(i[1], alpha);
                t.segment_sum(weighted, &s)
            };
            let budget = Equivalence::Approximate { max_ulps: 256, atol: 1e-5 };
            fused_vs_chain(budget, &inputs, &[true, true], &fused, &chain)
                .unwrap_or_else(|e| panic!("segments {lengths:?}: {e}"));
        }
        // The empty segment stays an exact zero row.
        let mut tape = Tape::new(0);
        let sc = tape.constant(wave(5, 1, 0.3, 4.0));
        let ms = tape.constant(wave(5, 2, 1.1, 2.0));
        let y = tape.segment_attention(sc, ms, &segs(&[2, 0, 3]));
        assert_eq!(tape.value(y).row(1), &[0.0, 0.0]);
    }

    /// The gather-fused kernel promises *bitwise* agreement with the
    /// materialised `gather_rows` + `segment_attention` composition, in both
    /// the forward value and every gradient — the two paths run the same
    /// arithmetic in the same order, only the addressing differs.
    #[test]
    fn gather_attention_is_bitwise_equal_to_gather_then_attention() {
        // Repeated indices exercise the scatter-add collisions, with an
        // empty segment; row 2 is hit once, then twice within one segment,
        // so the scatter's edge order shows. Then GAT's message layout of a
        // 6-node graph (a triangle 0-1-2, a pendant chain 2-3-4 and the
        // isolated node 5): each node's segment is its self-loop, then its
        // sorted neighbors.
        let cases: [(&[u32], &[usize], usize); 3] = [
            (&[0, 5, 2, 2, 4, 2, 0], &[3, 0, 3, 1], 3),
            (&[0, 3, 3, 1, 2, 0, 3, 2, 1, 0], &[3, 0, 4, 2, 1], 5),
            (&[0, 1, 2, 1, 0, 2, 2, 0, 1, 3, 3, 2, 4, 4, 3, 5], &[3, 3, 4, 3, 2, 1], 7),
        ];
        for (idx, lengths, cols) in cases {
            let (idx, s) = (Arc::new(EdgeIndex::new(idx.to_vec())), segs(lengths));
            let inputs = [wave(idx.len(), 1, 0.3, 4.0), wave(6, cols, 1.1, 2.0)];
            let fused = |t: &mut Tape, i: &[Tensor]| t.gather_attention(i[0], i[1], &idx, &s);
            let chain = |t: &mut Tape, i: &[Tensor]| {
                let messages = t.gather_rows(i[1], &idx);
                t.segment_attention(i[0], messages, &s)
            };
            fused_vs_chain(Equivalence::Bitwise, &inputs, &[true, true], &fused, &chain)
                .unwrap_or_else(|e| panic!("segments {lengths:?}: {e}"));
        }
    }

    /// Fused-vs-chain checks for the ops that read edge rows in place:
    /// bitwise in both flavours, at 1/2/4 threads, on edge lists with self
    /// loops, repeated edges and an empty segment, and with upstream
    /// gradients that include `-0` (the chain and the op both end in a
    /// product with a probe whose entries include `±0`).
    mod edge_reads {
        use super::*;
        use crate::simd::with_scalar;

        /// 11 edges into 6 nodes, grouped by destination: node 0 has a self
        /// loop and a repeated edge from 3, node 1 has no in-edges, node 4
        /// repeats its self loop, and node 0 is a source in three segments.
        fn layout() -> (Arc<EdgeIndex>, Arc<EdgeIndex>, Arc<Segments>) {
            let src = vec![0u32, 3, 3, 5, 0, 2, 2, 4, 4, 1, 0];
            let dst = vec![0u32, 0, 0, 2, 2, 3, 3, 4, 4, 5, 5];
            (
                Arc::new(EdgeIndex::new(src)),
                Arc::new(EdgeIndex::new(dst)),
                segs(&[3, 0, 2, 2, 2, 2]),
            )
        }

        /// `y ⊙ probe`, where the probe's `±0` entries make `-0` upstream
        /// gradients wherever the fixed upstream gradient is negative.
        fn probed(t: &mut Tape, y: Tensor) -> Tensor {
            let (rows, cols) = t.value(y).shape();
            let probe = t.constant(Matrix::from_fn(rows, cols, |r, c| match (r * cols + c) % 4 {
                0 => 0.0,
                1 => -0.0,
                k => k as f32 - 2.5,
            }));
            t.mul(y, probe)
        }

        fn both_flavours(
            inputs: &[Matrix],
            fused: &dyn Fn(&mut Tape, &[Tensor]) -> Tensor,
            chain: &dyn Fn(&mut Tape, &[Tensor]) -> Tensor,
        ) {
            for scalar in [false, true] {
                for probe in [false, true] {
                    let f = |t: &mut Tape, i: &[Tensor]| {
                        let y = fused(t, i);
                        if probe {
                            probed(t, y)
                        } else {
                            y
                        }
                    };
                    let c = |t: &mut Tape, i: &[Tensor]| {
                        let y = chain(t, i);
                        if probe {
                            probed(t, y)
                        } else {
                            y
                        }
                    };
                    let check = || fused_vs_chain(Equivalence::Bitwise, inputs, &[true], &f, &c);
                    let res = if scalar { with_scalar(check) } else { check() };
                    res.unwrap_or_else(|e| panic!("scalar {scalar}, probe {probe}: {e}"));
                }
            }
        }

        #[test]
        fn gather_dot_is_bitwise_equal_to_the_unfused_chain() {
            let (src, dst, _) = layout();
            // An odd width exercises any vector tail; a zero width sums
            // nothing.
            // With `later`, a read of `x` recorded after the scores (as GAT's
            // `gather_attention` is) puts its gradient into `x` first, so
            // the order of the two sides' scatters onto it shows.
            for (cols, later) in [(7, false), (7, true), (1, true), (0, false)] {
                let inputs = [wave(6, cols, 0.4, 2.0)];
                let read_again = |t: &mut Tape, x: Tensor, score: Tensor| {
                    if !later {
                        return score;
                    }
                    let rows = t.gather_rows(x, &dst);
                    let sums = t.row_sum(rows);
                    t.add(score, sums)
                };
                let fused = |t: &mut Tape, i: &[Tensor]| {
                    let score = t.gather_dot(i[0], &src, &dst);
                    read_again(t, i[0], score)
                };
                let chain = |t: &mut Tape, i: &[Tensor]| {
                    let hu = t.gather_rows(i[0], &src);
                    let hv = t.gather_rows(i[0], &dst);
                    let prod = t.mul(hu, hv);
                    let score = t.row_sum(prod);
                    read_again(t, i[0], score)
                };
                both_flavours(&inputs, &fused, &chain);
            }
        }

        #[test]
        fn indexed_segment_max_is_bitwise_equal_to_gather_then_max() {
            let (src, _, s) = layout();
            let plain = wave(6, 5, 0.9, 3.0);
            // Row 0 wins every column of its three segments, so three
            // gradients scatter onto each of its entries, in edge order.
            let mut boosted = plain.clone();
            boosted.row_mut(0).iter_mut().for_each(|v| *v += 10.0);
            // Row 5 ties with row 0 in node 2's segment, the repeated edge
            // from 3 ties with itself, and NaN and ±inf entries.
            let mut special = plain.clone();
            for c in 0..5 {
                special.data_mut()[5 * 5 + c] = special.get(0, c);
            }
            special.data_mut()[2] = f32::NAN;
            special.data_mut()[3 * 5 + 1] = f32::INFINITY;
            special.data_mut()[4 * 5 + 2] = f32::NEG_INFINITY;
            special.data_mut()[2 * 5 + 3] = f32::NAN;
            for x in [plain, boosted, special, Matrix::full(6, 3, -0.0)] {
                let fused = |t: &mut Tape, i: &[Tensor]| t.segment_max(i[0], Some(&src), &s);
                let chain = |t: &mut Tape, i: &[Tensor]| {
                    let messages = t.gather_rows(i[0], &src);
                    t.segment_max(messages, None, &s)
                };
                both_flavours(&[x], &fused, &chain);
            }
        }

        /// The first maximum wins a tie; an all-NaN column has no winner
        /// and reads `-inf`; an empty segment reads zero.
        #[test]
        fn indexed_segment_max_keeps_the_first_maximum() {
            let mut store = VarStore::new();
            let x = Matrix::from_vec(3, 2, vec![1.0, f32::NAN, 4.0, f32::NAN, 4.0, f32::NAN]);
            let p = store.add("x", x);
            let mut tape = Tape::new(0);
            let tx = tape.param(&store, p);
            let idx = Arc::new(EdgeIndex::new(vec![0u32, 2, 1, 1]));
            let m = tape.segment_max(tx, Some(&idx), &segs(&[3, 0, 1]));
            let v = tape.value(m).data();
            assert_eq!(&v[..1], &[4.0]);
            assert_eq!(v[1], f32::NEG_INFINITY);
            assert_eq!(&v[2..4], &[0.0, 0.0]);
            assert_eq!(&v[4..], &[4.0, f32::NEG_INFINITY]);
            let loss = tape.sum_all(m);
            let grads = tape.backward(loss);
            // Column 0: edge 1 (row 2) wins segment 0, edge 3 (row 1) wins
            // segment 2.
            assert_eq!(grads.get(p).expect("dx").data(), &[0.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        }
    }

    /// The edge-softmax kernels under a saturated softmax: scores spread by
    /// more than 110 within a segment put weights in the tiny-normal and
    /// subnormal ranges, where their products take the exact path
    /// (`simd::Exact`). Values and every gradient must equal naive f32
    /// loops with plain products, bit for bit, in both flavours at 1/2/4
    /// threads.
    mod saturated {
        use super::*;
        use crate::parallel::with_threads;
        use crate::simd::{flavour, is_tiny, with_scalar, Flavour};
        use crate::tape::ParamId;

        const COLS: usize = 5; // odd: exercises the vector tails

        /// 28 edges into 8 nodes, grouped by destination, with an empty and a
        /// one-edge segment. Sources repeat and include self loops.
        fn layout() -> (Arc<EdgeIndex>, Arc<EdgeIndex>, Arc<Segments>) {
            let lengths = [6, 0, 7, 1, 5, 3, 2, 4];
            let src = vec![
                0u32, 1, 5, 7, 3, 1, // node 0
                2, 4, 0, 6, 1, 5, 2, // node 2
                7, // node 3
                1, 0, 4, 7, 5, // node 4
                5, 1, 3, // node 5
                6, 0, // node 6
                7, 0, 1, 5, // node 7
            ];
            let dst: Vec<u32> =
                lengths.iter().enumerate().flat_map(|(v, &n)| vec![v as u32; n]).collect();
            (Arc::new(EdgeIndex::new(src)), Arc::new(EdgeIndex::new(dst)), segs(&lengths))
        }

        /// Per segment: ties at the top (so the vectorized `exp`'s floor of
        /// `e^-87` still normalises to a subnormal), deep scores on first
        /// edges, and scores that underflow to a zero weight.
        fn ladder_scores() -> Matrix {
            let scores: [f32; 28] = [
                2.0, -123.0, 2.0, -84.5, -59.0, 1.5, //
                -108.0, 4.0, -91.0, 3.5, -98.0, -85.0, 4.0, //
                7.0, //
                -30.0, -117.5, -30.0, -56.0, -29.5, //
                0.25, -86.75, 0.0, //
                1.0, -112.0, //
                -101.0, 0.0, -0.25, -95.5,
            ];
            Matrix::from_vec(28, 1, scores.to_vec())
        }

        /// Node rows `[s_v, small wave]`: the GAT-COS score of `u -> v` is
        /// about `s_u · s_v`, which spreads each big node's segment by more
        /// than 150.
        fn cos_features() -> Matrix {
            let s = [11.0f32, -10.0, 9.5, 3.0, -7.0, 10.5, 0.5, -9.0];
            let small = wave(8, COLS, 2.3, 0.5);
            Matrix::from_fn(8, COLS, |r, c| if c == 0 { s[r] } else { small.get(r, c) })
        }

        /// Upstream gradient with `±0` entries among the values.
        fn upstream(rows: usize) -> Matrix {
            let w = wave(rows, COLS, 0.7, 1.5);
            Matrix::from_fn(rows, COLS, |r, c| match (r * COLS + c) % 4 {
                0 => 0.0,
                1 => -0.0,
                _ => w.get(r, c),
            })
        }

        /// Softmax weights as the kernels form them: max-shifted, the
        /// flavour's `exp`, an in-order sum, then `e · (1 / sum)`.
        fn naive_alpha(fl: Flavour, scores: &[f32], segs: &Segments) -> Vec<f32> {
            let mut alpha = Vec::with_capacity(scores.len());
            for s in 0..segs.num_segments() {
                let seg = &scores[segs.range(s)];
                let max = seg.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
                let mut e: Vec<f32> = seg.iter().map(|&v| v - max).collect();
                fl.exp(&mut e);
                let mut sum = 0.0f32;
                for &v in &e {
                    sum += v;
                }
                let inv = 1.0 / sum;
                alpha.extend(e.iter().map(|&v| v * inv));
            }
            alpha
        }

        /// `out[s] = Σ α_e · m_e`: the first edge's plain product, then the
        /// flavour's multiply-add per edge.
        fn naive_forward(fl: Flavour, alpha: &[f32], segs: &Segments, rows: &[&[f32]]) -> Vec<f32> {
            let mut out = vec![0.0f32; segs.num_segments() * COLS];
            for (s, orow) in out.chunks_exact_mut(COLS).enumerate() {
                for (k, e) in segs.range(s).enumerate() {
                    for (o, &m) in orow.iter_mut().zip(rows[e]) {
                        *o = if k == 0 { alpha[e] * m } else { fl.madd(alpha[e], m, *o) };
                    }
                }
            }
            out
        }

        /// The score gradient and the per-edge message gradient rows.
        fn naive_backward(
            fl: Flavour,
            alpha: &[f32],
            segs: &Segments,
            rows: &[&[f32]],
            g: &Matrix,
        ) -> (Vec<f32>, Vec<f32>) {
            let mut gs = vec![0.0f32; alpha.len()];
            let mut gm = vec![0.0f32; alpha.len() * COLS];
            for s in 0..segs.num_segments() {
                let grow = g.row(s);
                let mut dot_s = 0.0f32;
                for e in segs.range(s) {
                    gs[e] = fl.dot(rows[e], grow);
                    dot_s += alpha[e] * gs[e];
                    for (o, &gv) in gm[e * COLS..(e + 1) * COLS].iter_mut().zip(grow) {
                        *o = alpha[e] * gv;
                    }
                }
                for e in segs.range(s) {
                    gs[e] = alpha[e] * (gs[e] - dot_s);
                }
            }
            (gs, gm)
        }

        /// `gather_rows`' serial scatter-add of per-edge rows, in edge order.
        fn naive_scatter(to: &[u32], rows: &[f32], nrows: usize) -> Vec<f32> {
            let mut out = vec![0.0f32; nrows * COLS];
            for (&t, row) in to.iter().zip(rows.chunks_exact(COLS)) {
                let t = t as usize;
                for (o, &v) in out[t * COLS..(t + 1) * COLS].iter_mut().zip(row) {
                    *o += v;
                }
            }
            out
        }

        /// The weights really are saturated: some subnormal, some tiny normal.
        fn assert_saturated(fl: Flavour, alpha: &[f32]) {
            let sub = alpha.iter().any(|&a| a != 0.0 && a.abs() < f32::MIN_POSITIVE);
            let tiny = alpha.iter().any(|&a| is_tiny(a) && a.abs() >= f32::MIN_POSITIVE);
            assert!(sub && tiny, "{fl:?}: fixture weights not saturated: {alpha:?}");
        }

        fn bitwise(what: &str, got: &[f32], want: &[f32]) {
            assert_eq!(got.len(), want.len(), "{what}: lengths");
            for (k, (&x, &y)) in got.iter().zip(want).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}[{k}]: kernel {x:e} vs naive {y:e}");
            }
        }

        /// Records `build` over `inputs` as parameters and sweeps back from
        /// its output seeded with `upstream`: the output and each input's
        /// gradient.
        fn run(
            inputs: &[&Matrix],
            upstream: &Matrix,
            build: &dyn Fn(&mut Tape, &[Tensor]) -> Tensor,
        ) -> (Matrix, Vec<Matrix>) {
            let mut store = VarStore::new();
            let ids: Vec<ParamId> = inputs.iter().map(|&m| store.add("in", m.clone())).collect();
            let mut tape = Tape::new(0);
            let ts: Vec<Tensor> = ids.iter().map(|&p| tape.param(&store, p)).collect();
            let out = build(&mut tape, &ts);
            let grads = tape.backward_seeded(out, upstream.clone());
            let grads = ids.iter().map(|&p| grads.get(p).expect("input gradient").clone());
            (tape.value(out).clone(), grads.collect())
        }

        /// `check(flavour, threads)` in both flavours at 1, 2 and 4 threads.
        fn each_mode(check: impl Fn(Flavour, usize)) {
            for scalar in [false, true] {
                for threads in [1, 2, 4] {
                    let go = || with_threads(threads, || check(flavour(), threads));
                    if scalar {
                        with_scalar(go)
                    } else {
                        go()
                    }
                }
            }
        }

        #[test]
        fn segment_attention_matches_naive_loops() {
            let (_, _, s) = layout();
            let scores = ladder_scores();
            let msgs = wave(28, COLS, 1.1, 2.0);
            let g = upstream(8);
            each_mode(|fl, threads| {
                let at = |what: &str| format!("{fl:?} at {threads} threads: {what}");
                let alpha = naive_alpha(fl, scores.data(), &s);
                assert_saturated(fl, &alpha);
                let rows: Vec<&[f32]> = (0..28).map(|e| msgs.row(e)).collect();
                let (gs, gm) = naive_backward(fl, &alpha, &s, &rows, &g);
                let (y, grads) =
                    run(&[&scores, &msgs], &g, &|t, i| t.segment_attention(i[0], i[1], &s));
                bitwise(&at("value"), y.data(), &naive_forward(fl, &alpha, &s, &rows));
                bitwise(&at("d scores"), grads[0].data(), &gs);
                bitwise(&at("d messages"), grads[1].data(), &gm);
            });
        }

        #[test]
        fn gather_attention_matches_naive_loops() {
            let (src, _, s) = layout();
            let scores = ladder_scores();
            let x = wave(8, COLS, 1.9, 2.0);
            let g = upstream(8);
            each_mode(|fl, threads| {
                let at = |what: &str| format!("{fl:?} at {threads} threads: {what}");
                let alpha = naive_alpha(fl, scores.data(), &s);
                assert_saturated(fl, &alpha);
                let rows: Vec<&[f32]> = src.iter().map(|&u| x.row(u as usize)).collect();
                let (gs, gm) = naive_backward(fl, &alpha, &s, &rows, &g);
                let (y, grads) =
                    run(&[&scores, &x], &g, &|t, i| t.gather_attention(i[0], i[1], &src, &s));
                bitwise(&at("value"), y.data(), &naive_forward(fl, &alpha, &s, &rows));
                bitwise(&at("d scores"), grads[0].data(), &gs);
                bitwise(&at("d x"), grads[1].data(), &naive_scatter(&src, &gm, 8));
            });
        }

        /// GAT-COS: `gather_dot` scores into `gather_attention`, so the
        /// score gradient `gather_dot` scatters is the saturated softmax's.
        #[test]
        fn gather_dot_matches_naive_loops() {
            let (src, dst, s) = layout();
            let x = cos_features();
            let h = wave(8, COLS, 0.2, 2.0);
            let g = upstream(8);
            each_mode(|fl, threads| {
                let at = |what: &str| format!("{fl:?} at {threads} threads: {what}");
                let scores: Vec<f32> = src
                    .iter()
                    .zip(dst.iter())
                    .map(|(&u, &v)| {
                        x.row(u as usize).iter().zip(x.row(v as usize)).map(|(&a, &b)| a * b).sum()
                    })
                    .collect();
                let spread = |r: Range<usize>| {
                    let seg = &scores[r];
                    seg.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v))
                        - seg.iter().fold(f32::INFINITY, |m, &v| m.min(v))
                };
                assert!((0..8).any(|v| spread(s.range(v)) > 110.0), "{scores:?}");
                let alpha = naive_alpha(fl, &scores, &s);
                let rows: Vec<&[f32]> = src.iter().map(|&u| h.row(u as usize)).collect();
                let (ge, gm) = naive_backward(fl, &alpha, &s, &rows, &g);
                assert!(ge.iter().any(|&v| is_tiny(v)), "{fl:?}: no tiny score gradient");
                // `gather_dot`'s two sides, destination first, each a scatter
                // of `ge · x[other side]`, summed as the reverse sweep does.
                let side = |to: &[u32], other: &[u32]| {
                    let rows: Vec<f32> = ge
                        .iter()
                        .zip(other)
                        .flat_map(|(&d, &o)| x.row(o as usize).iter().map(move |&v| d * v))
                        .collect();
                    naive_scatter(to, &rows, 8)
                };
                let mut gx = side(&dst, &src);
                for (a, b) in gx.iter_mut().zip(side(&src, &dst)) {
                    *a += b;
                }
                let (y, grads) = run(&[&x, &h], &g, &|t, i| {
                    let score = t.gather_dot(i[0], &src, &dst);
                    t.gather_attention(score, i[1], &src, &s)
                });
                bitwise(&at("value"), y.data(), &naive_forward(fl, &alpha, &s, &rows));
                bitwise(&at("d x"), grads[0].data(), &gx);
                bitwise(&at("d h"), grads[1].data(), &naive_scatter(&src, &gm, 8));
            });
        }
    }

    mod gen_linear {
        use super::*;
        use crate::simd::with_scalar;
        use crate::tape::ParamId;

        const D: usize = 11; // odd: exercises the vector tails

        struct Fixture {
            store: VarStore,
            params: [ParamId; 3],
            src: Arc<EdgeIndex>,
            dst: Arc<EdgeIndex>,
            /// Per-edge weights on the score, so every edge sees its own dS.
            probe: Matrix,
        }

        /// Projections of 6 and 5 rows, a `D x 1` gen_out, and 14 edges
        /// whose indices collide on both sides, so scatter order shows.
        /// Sums reach ±5, past the rational tanh's small-|x| band.
        fn fixture() -> Fixture {
            let mut store = VarStore::new();
            let wave = |r: usize, c: usize, salt: f32| ((r * D + c) as f32 * 0.37 + salt).sin();
            let ps = store.add("ps", Matrix::from_fn(6, D, |r, c| 2.5 * wave(r, c, 0.1)));
            let pd = store.add("pd", Matrix::from_fn(5, D, |r, c| 2.5 * wave(r, c, 1.3)));
            let w = store.add("w", Matrix::from_fn(D, 1, |r, _| wave(r, 0, 2.9)));
            let src = Arc::new(EdgeIndex::new(vec![0u32, 5, 2, 2, 4, 0, 1, 3, 5, 5, 0, 2, 2, 1]));
            let dst = Arc::new(EdgeIndex::new(vec![1u32, 1, 0, 4, 4, 2, 3, 3, 0, 1, 4, 2, 0, 0]));
            let probe = Matrix::from_fn(src.len(), 1, |r, _| wave(r, 3, 0.7) * 1.7);
            Fixture { store, params: [ps, pd, w], src, dst, probe }
        }

        /// Values and each gradient, under every `wants` subset, both
        /// flavours, 1/2/4 threads.
        #[test]
        fn gen_linear_score_is_bitwise_equal_to_the_unfused_chain() {
            let Fixture { store, params, src, dst, .. } = fixture();
            let inputs: Vec<Matrix> = params.iter().map(|&p| store.value(p).clone()).collect();
            let fused =
                |t: &mut Tape, i: &[Tensor]| t.gen_linear_score(i[0], i[1], i[2], &src, &dst);
            let chain = |t: &mut Tape, i: &[Tensor]| {
                let eu = t.gather_rows(i[0], &src);
                let ev = t.gather_rows(i[1], &dst);
                let summed = t.add(eu, ev);
                let th = t.tanh(summed);
                t.matmul(th, i[2])
            };
            for scalar in [false, true] {
                for mask in 1u8..8 {
                    let wanted: Vec<bool> = (0..3).map(|i| mask >> i & 1 == 1).collect();
                    let check =
                        || fused_vs_chain(Equivalence::Bitwise, &inputs, &wanted, &fused, &chain);
                    let res = if scalar { with_scalar(check) } else { check() };
                    res.unwrap_or_else(|e| panic!("scalar {scalar}, wants {mask:03b}: {e}"));
                }
            }
        }

        /// The op itself forms exactly the gradients it is asked for.
        #[test]
        fn gen_linear_score_backward_skips_unwanted_inputs() {
            let Fixture { store, params, src, dst, probe } = fixture();
            let mut tape = Tape::new(0);
            let [a, b, c] = params.map(|p| tape.param(&store, p));
            let score = tape.gen_linear_score(a, b, c, &src, &dst);
            let node = tape.node(score.index());
            let inputs: Vec<&Matrix> = node.inputs.iter().map(|&t| tape.value(t)).collect();
            for mask in 0u8..8 {
                let wants: Vec<bool> = (0..3).map(|i| mask >> i & 1 == 1).collect();
                let grads = node.op.backward(&node.value, &probe, &inputs, &wants);
                let formed: Vec<bool> = grads.iter().map(Option::is_some).collect();
                assert_eq!(formed, wants);
                grads.into_iter().flatten().for_each(pool::put);
            }
        }

        #[test]
        fn gen_linear_score_handles_zero_width_projections() {
            let mut tape = Tape::new(0);
            let a = tape.constant(Matrix::zeros(3, 0));
            let b = tape.constant(Matrix::zeros(2, 0));
            let c = tape.constant(Matrix::zeros(0, 1));
            let idx = Arc::new(EdgeIndex::new(vec![0u32, 2, 1]));
            let to = Arc::new(EdgeIndex::new(vec![1u32, 0, 0]));
            let s = tape.gen_linear_score(a, b, c, &idx, &to);
            assert_eq!(tape.value(s).shape(), (3, 1));
            assert!(tape.value(s).data().iter().all(|&v| v.to_bits() == 0));
        }
    }

    /// The register folds and by-target folds against naive serial loops
    /// with the semantics they replace: row-streaming `madd` loops forward,
    /// and serial scatter-adds in edge order backward. Bitwise (any NaN
    /// matches any NaN), in both flavours at 1/2/4 threads, at widths that
    /// hit every column block and tail.
    mod folds {
        use super::*;
        use crate::parallel::with_threads;
        use crate::simd::{flavour, is_tiny, with_scalar, Flavour};
        use crate::tape::ParamId;

        const WIDTHS: [usize; 7] = [0, 1, 7, 8, 32, 33, 40];
        const NODES: usize = 7;

        /// 24 edges into 7 nodes, grouped by destination. Node 1 has no
        /// in-edges (an empty segment), node 6 sends no message (an empty
        /// by-source list), `3 -> 0`, `0 -> 4` and `1 -> 6` repeat, nodes
        /// 0, 2, 3 and 4 have self loops, and node 6's 11 edges fill one
        /// eight-edge block of the score-gradient dots and leave three.
        fn layout() -> (Arc<EdgeIndex>, Arc<EdgeIndex>, Arc<Segments>) {
            let lengths = [4, 0, 3, 2, 3, 1, 11];
            let src =
                vec![0u32, 3, 3, 2, 2, 0, 5, 3, 4, 4, 0, 0, 2, 1, 5, 1, 0, 2, 3, 4, 5, 0, 1, 2];
            let dst: Vec<u32> =
                lengths.iter().enumerate().flat_map(|(v, &n)| vec![v as u32; n]).collect();
            (Arc::new(EdgeIndex::new(src)), Arc::new(EdgeIndex::new(dst)), segs(&lengths))
        }

        /// Scores spread by more than 86 within most segments, so both
        /// flavours' weights include subnormal and tiny normal values.
        fn saturated_scores() -> Matrix {
            let scores = [
                2.0, -123.0, 2.0, -86.5, //
                -108.0, 4.0, -91.0, //
                7.0, -45.0, //
                -30.0, -117.5, -30.0, //
                0.25,  //
                1.0, -112.0, -87.25, 0.5, -3.0, 1.0, -60.0, 0.75, -99.0, 2.5, -1.5,
            ];
            Matrix::from_vec(24, 1, scores.to_vec())
        }

        /// Finite values with `±0` entries.
        fn features(rows: usize, cols: usize, salt: f32) -> Matrix {
            let w = wave(rows, cols, salt, 2.0);
            Matrix::from_fn(rows, cols, |r, c| match (r * cols + c) % 9 {
                0 => 0.0,
                4 => -0.0,
                _ => w.get(r, c),
            })
        }

        /// Upstream gradient with `±0`, NaN and `±inf` among the values.
        fn upstream(rows: usize, cols: usize) -> Matrix {
            let w = wave(rows, cols, 0.7, 1.5);
            Matrix::from_fn(rows, cols, |r, c| match (r * cols + c) % 23 {
                0 => 0.0,
                3 | 11 => -0.0,
                7 => f32::NAN,
                15 => f32::INFINITY,
                19 => f32::NEG_INFINITY,
                _ => w.get(r, c),
            })
        }

        /// Bit for bit, except that any NaN matches any NaN: IEEE leaves
        /// NaN payloads open, and the kernels' operand order is not
        /// pinned for them.
        fn same(what: &str, got: &[f32], want: &[f32]) {
            assert_eq!(got.len(), want.len(), "{what}: lengths");
            for (k, (&x, &y)) in got.iter().zip(want).enumerate() {
                let ok = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
                assert!(ok, "{what}[{k}]: kernel {x:e} vs naive {y:e}");
            }
        }

        /// `check(flavour, threads)` in both flavours at 1, 2 and 4 threads.
        fn each_mode(check: impl Fn(Flavour, usize)) {
            for scalar in [false, true] {
                for threads in [1, 2, 4] {
                    let go = || with_threads(threads, || check(flavour(), threads));
                    if scalar {
                        with_scalar(go)
                    } else {
                        go()
                    }
                }
            }
        }

        /// Records `build` over `inputs` as parameters and sweeps back from
        /// its output seeded with `upstream`: the output and each input's
        /// gradient.
        fn run(
            inputs: &[&Matrix],
            upstream: &Matrix,
            build: &dyn Fn(&mut Tape, &[Tensor]) -> Tensor,
        ) -> (Matrix, Vec<Matrix>) {
            let mut store = VarStore::new();
            let ids: Vec<ParamId> = inputs.iter().map(|&m| store.add("in", m.clone())).collect();
            let mut tape = Tape::new(0);
            let ts: Vec<Tensor> = ids.iter().map(|&p| tape.param(&store, p)).collect();
            let out = build(&mut tape, &ts);
            let grads = tape.backward_seeded(out, upstream.clone());
            let grads = ids.iter().map(|&p| grads.get(p).expect("input gradient").clone());
            (tape.value(out).clone(), grads.collect())
        }

        /// The serial scatter-add `out[to[e]] += rows[e]`, in edge order
        /// from `+0`.
        fn scatter(to: &[u32], rows: &[f32], nrows: usize, cols: usize) -> Vec<f32> {
            let mut out = vec![0.0f32; nrows * cols];
            if cols > 0 {
                for (&t, row) in to.iter().zip(rows.chunks_exact(cols)) {
                    let t = t as usize;
                    for (o, &v) in out[t * cols..(t + 1) * cols].iter_mut().zip(row) {
                        *o += v;
                    }
                }
            }
            out
        }

        /// Softmax weights as the kernels form them.
        fn naive_alpha(fl: Flavour, scores: &[f32], segs: &Segments) -> Vec<f32> {
            let mut alpha = Vec::with_capacity(scores.len());
            for s in 0..segs.num_segments() {
                let seg = &scores[segs.range(s)];
                let max = seg.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
                let mut e: Vec<f32> = seg.iter().map(|&v| v - max).collect();
                fl.exp(&mut e);
                let mut sum = 0.0f32;
                for &v in &e {
                    sum += v;
                }
                let inv = 1.0 / sum;
                alpha.extend(e.iter().map(|&v| v * inv));
            }
            alpha
        }

        #[test]
        fn the_by_target_order_lists_every_edge_once_ascending() {
            let (src, dst, s) = layout();
            for idx in [&src, &dst] {
                assert_eq!(idx.bound(), 1 + *idx.iter().max().expect("edges") as usize);
                let mut seen = vec![0u32; idx.len()];
                for t in 0..idx.bound() + 2 {
                    let edges = idx.edges_into(t);
                    assert!(edges.windows(2).all(|w| w[0] < w[1]), "row {t}: {edges:?}");
                    for &e in edges {
                        assert_eq!(idx[e as usize] as usize, t, "edge {e} listed under row {t}");
                        seen[e as usize] += 1;
                    }
                }
                assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
            }
            assert!(src.edges_into(6).is_empty(), "node 6 sends nothing");
            // A grouped list sorts to the identity, its segments as offsets.
            for v in 0..s.num_segments() {
                let want: Vec<u32> = s.range(v).map(|e| e as u32).collect();
                assert_eq!(dst.edges_into(v), &want[..]);
            }
            assert_eq!(s.owners(), &dst[..]);
            let empty = EdgeIndex::new(Vec::new());
            assert_eq!((empty.bound(), empty.edges_into(0)), (0, &[][..]));
        }

        #[test]
        #[should_panic(expected = "gather_rows index out of bounds (source has 6 rows)")]
        fn the_bounds_check_reads_the_largest_index() {
            let mut tape = Tape::new(0);
            let x = tape.constant(Matrix::zeros(6, 2));
            let _ = tape.gather_rows(x, &Arc::new(EdgeIndex::new(vec![0, 6, 1])));
        }

        #[test]
        fn gather_rows_matches_the_copy_and_the_scatter() {
            let (src, _, _) = layout();
            for cols in WIDTHS {
                let x = features(NODES, cols, 0.4);
                let g = upstream(src.len(), cols);
                each_mode(|fl, threads| {
                    let at = |w: &str| format!("{fl:?} at {threads} threads, {cols} wide: {w}");
                    let (y, grads) = run(&[&x], &g, &|t, i| t.gather_rows(i[0], &src));
                    let copied: Vec<f32> =
                        src.iter().flat_map(|&u| x.row(u as usize).to_vec()).collect();
                    same(&at("value"), y.data(), &copied);
                    same(&at("d x"), grads[0].data(), &scatter(&src, g.data(), NODES, cols));
                    let direct = x.gather_rows(&src);
                    same(&at("Matrix::gather_rows"), direct.data(), &copied);
                });
            }
        }

        /// `out[s] = Σ α_e · m_e`: the first edge's plain product, then the
        /// flavour's multiply-add per edge; an empty segment reads `+0`.
        fn naive_forward(
            fl: Flavour,
            alpha: &[f32],
            segs: &Segments,
            rows: &[&[f32]],
            cols: usize,
        ) -> Vec<f32> {
            let mut out = vec![0.0f32; segs.num_segments() * cols];
            for s in 0..segs.num_segments() {
                for (k, e) in segs.range(s).enumerate() {
                    for (c, &m) in rows[e].iter().enumerate() {
                        let o = &mut out[s * cols + c];
                        *o = if k == 0 { alpha[e] * m } else { fl.madd(alpha[e], m, *o) };
                    }
                }
            }
            out
        }

        /// The score gradient and the per-edge message gradient rows.
        fn naive_backward(
            fl: Flavour,
            alpha: &[f32],
            segs: &Segments,
            rows: &[&[f32]],
            g: &Matrix,
        ) -> (Vec<f32>, Vec<f32>) {
            let cols = g.cols();
            let mut gs = vec![0.0f32; alpha.len()];
            let mut gm = vec![0.0f32; alpha.len() * cols];
            for s in 0..segs.num_segments() {
                let grow = g.row(s);
                let mut dot_s = 0.0f32;
                for e in segs.range(s) {
                    gs[e] = fl.dot(rows[e], grow);
                    dot_s += alpha[e] * gs[e];
                    for (o, &gv) in gm[e * cols..(e + 1) * cols].iter_mut().zip(grow) {
                        *o = alpha[e] * gv;
                    }
                }
                for e in segs.range(s) {
                    gs[e] = alpha[e] * (gs[e] - dot_s);
                }
            }
            (gs, gm)
        }

        #[test]
        fn attention_rows_match_the_streaming_loops() {
            let (src, _, s) = layout();
            let scores = saturated_scores();
            for cols in WIDTHS {
                let x = features(NODES, cols, 1.9);
                let msgs = x.gather_rows(&src);
                let g = upstream(NODES, cols);
                each_mode(|fl, threads| {
                    let at = |w: &str| format!("{fl:?} at {threads} threads, {cols} wide: {w}");
                    let alpha = naive_alpha(fl, scores.data(), &s);
                    let sub = alpha.iter().any(|&a| a != 0.0 && a.abs() < f32::MIN_POSITIVE);
                    let tiny = alpha.iter().any(|&a| is_tiny(a) && a.abs() >= f32::MIN_POSITIVE);
                    assert!(sub && tiny, "{fl:?}: weights not saturated: {alpha:?}");
                    let rows: Vec<&[f32]> = (0..src.len()).map(|e| msgs.row(e)).collect();
                    let want_y = naive_forward(fl, &alpha, &s, &rows, cols);
                    let (gs, gm) = naive_backward(fl, &alpha, &s, &rows, &g);

                    let (y, grads) =
                        run(&[&scores, &x], &g, &|t, i| t.gather_attention(i[0], i[1], &src, &s));
                    same(&at("gather value"), y.data(), &want_y);
                    same(&at("gather d scores"), grads[0].data(), &gs);
                    same(&at("gather d x"), grads[1].data(), &scatter(&src, &gm, NODES, cols));

                    let (y, grads) =
                        run(&[&scores, &msgs], &g, &|t, i| t.segment_attention(i[0], i[1], &s));
                    same(&at("segment value"), y.data(), &want_y);
                    same(&at("segment d scores"), grads[0].data(), &gs);
                    same(&at("segment d messages"), grads[1].data(), &gm);
                });
            }
        }

        /// GAT-COS scores with upstream score gradients that are tiny (the
        /// exact path), `±0`, NaN and `±inf`.
        #[test]
        fn gather_dot_sides_match_the_scatters() {
            let (src, dst, _) = layout();
            let mut ge = upstream(src.len(), 1);
            ge.data_mut()[1] = 3.0e-39;
            ge.data_mut()[5] = -2.5e-25;
            ge.data_mut()[9] = f32::from_bits(1);
            for cols in WIDTHS {
                let x = features(NODES, cols, 0.2);
                each_mode(|fl, threads| {
                    let at = |w: &str| format!("{fl:?} at {threads} threads, {cols} wide: {w}");
                    let scores: Vec<f32> = src
                        .iter()
                        .zip(dst.iter())
                        .map(|(&u, &v)| {
                            let (a, b) = (x.row(u as usize), x.row(v as usize));
                            a.iter().zip(b).map(|(&a, &b)| a * b).sum()
                        })
                        .collect();
                    let side = |to: &[u32], other: &[u32]| {
                        let rows: Vec<f32> = ge
                            .data()
                            .iter()
                            .zip(other)
                            .flat_map(|(&d, &o)| x.row(o as usize).iter().map(move |&v| d * v))
                            .collect();
                        scatter(to, &rows, NODES, cols)
                    };
                    let mut gx = side(&dst, &src);
                    for (a, b) in gx.iter_mut().zip(side(&src, &dst)) {
                        *a += b;
                    }
                    let (y, grads) = run(&[&x], &ge, &|t, i| t.gather_dot(i[0], &src, &dst));
                    same(&at("value"), y.data(), &scores);
                    same(&at("d x"), grads[0].data(), &gx);
                });
            }
        }
    }

    #[test]
    fn segment_attention_weights_are_normalised() {
        // With all-ones messages every output row is exactly the segment's
        // softmax mass, i.e. 1 for non-empty segments.
        let mut tape = Tape::new(0);
        let sc = tape.constant(Matrix::from_vec(4, 1, vec![5.0, -2.0, 0.0, 1.0]));
        let ms = tape.constant(Matrix::full(4, 3, 1.0));
        let s = segs(&[3, 1]);
        let y = tape.segment_attention(sc, ms, &s);
        for &v in tape.value(y).data() {
            assert!((v - 1.0).abs() < 1e-6, "weights must sum to one, got {v}");
        }
    }

    #[test]
    fn segment_attention_handles_extreme_scores() {
        let mut tape = Tape::new(0);
        let sc = tape.constant(Matrix::from_vec(2, 1, vec![1000.0, -1000.0]));
        let ms = tape.constant(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let s = segs(&[2]);
        let y = tape.segment_attention(sc, ms, &s);
        assert!(!tape.value(y).has_non_finite());
        assert!((tape.value(y).get(0, 0) - 1.0).abs() < 1e-5);
        assert!((tape.value(y).get(0, 1) - 2.0).abs() < 1e-5);
    }

    #[test]
    fn mul_col_broadcast_grads() {
        let mut store = VarStore::new();
        let a = store.add("a", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let w = store.add("w", Matrix::from_vec(2, 1, vec![10.0, 20.0]));
        let mut tape = Tape::new(0);
        let ta = tape.param(&store, a);
        let tw = tape.param(&store, w);
        let y = tape.mul_col_broadcast(ta, tw);
        assert_eq!(tape.value(y).data(), &[10.0, 20.0, 60.0, 80.0]);
        let loss = tape.sum_all(y);
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[10.0, 10.0, 20.0, 20.0]);
        assert_eq!(g.get(w).unwrap().data(), &[3.0, 7.0]);
    }
}
