//! Dataflow analysis of recorded tapes: liveness, interference and a
//! verified memory-reuse plan.
//!
//! A [`Tape`](crate::Tape) is a Wengert list — a flat, already-scheduled
//! dataflow graph. [`Tape::op_graph`] lowers it into a typed [`OpGraph`]
//! view (op name, shape, wiring, and each op's declared
//! [`GradReads`] contract), and [`plan_memory`] runs a pure static pass
//! over that view:
//!
//! 1. **Liveness** — every value gets a `[def, last_use]` interval on a
//!    shared timeline covering both sweeps: forward time `i` computes node
//!    `i`, backward time `n + (n - 1 - j)` runs node `j`'s backward. A
//!    value's last use is the latest of its forward consumers, the
//!    backward steps of consumers whose [`GradReads`] declare they
//!    dereference it, and its own backward step when the op reads its
//!    output. Shape-only reads count as reads: a released buffer loses
//!    its shape along with its data.
//! 2. **Interference + slots** — values whose intervals overlap interfere;
//!    a greedy linear scan over def order colors non-pinned values onto
//!    buffer slots, reusing a slot as soon as its previous tenant's
//!    interval has closed (strictly — a value being read while its
//!    consumer is computed still interferes with that consumer).
//! 3. **In-place aliasing** — for ops whose kernels could write their
//!    output over an input ([`inplace_positions`]), the pass records the
//!    pairs where that is provably safe: single consumer, matching shape,
//!    source not pinned, and nothing (including the op's own backward)
//!    reading the source afterwards.
//!
//! The emitted [`MemPlan`] is *proven before use*: [`check_memplan`] is an
//! independent verifier in the style of [`crate::analysis::check_plan`]
//! that recomputes reachability and the liveness lower bounds from the
//! graph and rejects any plan that releases a value too early, overlaps
//! two tenants in one slot, undersizes a slot, claims an illegal alias, or
//! disagrees about dead ops. [`Tape::memplan`] never returns an unchecked
//! plan; a violation panics through telemetry (`dataflow.bad_memplan`),
//! because executing under a bad plan would read freed buffers.
//!
//! [`Tape::backward_measured`](crate::Tape::backward_measured) consumes the
//! plan: it releases each tape value into the [`crate::pool`] the moment
//! its interval closes, so backward-pass gradient buffers are drawn from
//! the memory the forward pass no longer needs, and reports actual
//! peak-resident bytes next to the plan's prediction.

use crate::tape::{Tape, Tensor};

/// Which forward values an op's backward pass dereferences.
///
/// "Dereferences" includes shape-only reads: the planner frees a value by
/// swapping in an empty matrix, which loses the shape along with the data.
/// The conservative default ([`GradReads::ALL`]) declares everything read,
/// which is always safe and merely forfeits reuse.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GradReads {
    /// `backward` dereferences the forward output (value or shape).
    pub out: bool,
    /// Which input positions `backward` dereferences (value or shape).
    pub inputs: InputReads,
}

/// Input positions an op's backward pass dereferences.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum InputReads {
    /// Backward touches no input value.
    None,
    /// Backward may touch every input value.
    All,
    /// Backward touches exactly these input positions.
    Only(&'static [usize]),
}

impl GradReads {
    /// Conservative contract: backward may read everything.
    pub const ALL: Self = Self { out: true, inputs: InputReads::All };
    /// Backward reads neither output nor inputs (everything it needs was
    /// saved at record time, or the rule only touches the incoming grad).
    pub const NONE: Self = Self { out: false, inputs: InputReads::None };
    /// Backward reads only the forward output (activations like `relu`).
    pub const OUT_ONLY: Self = Self { out: true, inputs: InputReads::None };
    /// Backward reads every input but not the output (e.g. `matmul`).
    pub const INPUTS_ONLY: Self = Self { out: false, inputs: InputReads::All };

    /// Backward reads only the listed input positions, not the output.
    pub const fn inputs_at(positions: &'static [usize]) -> Self {
        Self { out: false, inputs: InputReads::Only(positions) }
    }

    /// Whether this contract permits backward to dereference input `pos`.
    pub fn reads_input(&self, pos: usize) -> bool {
        match self.inputs {
            InputReads::None => false,
            InputReads::All => true,
            InputReads::Only(ps) => ps.contains(&pos),
        }
    }
}

/// One tape node in the typed op-graph view.
#[derive(Clone, Debug)]
pub struct OpNode {
    /// Node index on the tape (also its forward timestamp).
    pub index: usize,
    /// Op name as declared by [`Op::name`](crate::tape::Op::name).
    pub op: &'static str,
    /// Recorded output shape.
    pub shape: (usize, usize),
    /// Recorded output length in scalars.
    pub len: usize,
    /// Input node indices, in wiring order.
    pub inputs: Vec<usize>,
    /// True for input/param leaves (no tape inputs).
    pub is_leaf: bool,
    /// True for parameter leaves.
    pub is_param: bool,
    /// The op's declared backward-read contract.
    pub grad_reads: GradReads,
}

/// Typed dataflow view of one recorded tape.
#[derive(Clone, Debug)]
pub struct OpGraph {
    pub nodes: Vec<OpNode>,
    /// The loss node the backward sweep starts from, when known.
    pub output: Option<usize>,
}

impl OpGraph {
    /// Per-node reachability from the output via a reverse walk over
    /// inputs. With no output, nothing is reachable. This is the one
    /// reachability implementation shared with [`Tape::audit`], so the
    /// audit's dead-compute report and the planner's dead list cannot
    /// disagree.
    pub fn reachable(&self) -> Vec<bool> {
        let mut reachable = vec![false; self.nodes.len()];
        let Some(out) = self.output else { return reachable };
        let mut stack = vec![out];
        reachable[out] = true;
        while let Some(i) = stack.pop() {
            for &t in &self.nodes[i].inputs {
                if !reachable[t] {
                    reachable[t] = true;
                    stack.push(t);
                }
            }
        }
        reachable
    }

    /// Forward-consumer count per node, over *all* recorded nodes (dead
    /// consumers still read their inputs during the eager forward pass).
    pub fn fanout(&self) -> Vec<usize> {
        let mut fan = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for &t in &node.inputs {
                fan[t] += 1;
            }
        }
        fan
    }

    /// Timestamp of node `j`'s backward step on the shared timeline.
    pub fn bwd_time(&self, j: usize) -> usize {
        let n = self.nodes.len();
        n + (n - 1 - j)
    }

    /// One past the last timestamp; pinned values live until here.
    pub fn end_time(&self) -> usize {
        2 * self.nodes.len()
    }

    /// Whether a value must stay resident for the tape's whole lifetime:
    /// leaves (their buffers are shared with the caller or the
    /// [`crate::VarStore`]) and the output node (the caller reads the
    /// loss after backward).
    pub fn pinned(&self, v: usize) -> bool {
        self.nodes[v].is_leaf || self.output == Some(v)
    }
}

/// Input positions an op's forward kernel could write its output over,
/// were the tape executed from a plan instead of eagerly (elementwise
/// same-shape kernels only; anything reading across rows or columns is
/// excluded). This is the per-op in-place contract table — the alias map
/// in a [`MemPlan`] only ever pairs an op with a position listed here.
pub fn inplace_positions(op: &str) -> &'static [usize] {
    match op {
        // Binary elementwise: the output may overwrite either operand.
        "add" | "sub" | "mul" => &[0, 1],
        // Unary elementwise (incl. the scalar-gate multiply, whose dense
        // operand is position 0).
        "scale" | "add_scalar" | "mul_scalar_tensor" | "relu" | "leaky_relu" | "elu" | "tanh"
        | "sigmoid" | "abs" | "dropout" => &[0],
        _ => &[],
    }
}

/// Planned lifetime and placement of one tape value.
#[derive(Clone, Debug)]
pub struct ValuePlan {
    /// Forward timestamp the value is defined at (== its node index).
    pub def: usize,
    /// Last timestamp the value is dereferenced at (inclusive);
    /// [`OpGraph::end_time`] for pinned values.
    pub last_use: usize,
    /// Value length in scalars.
    pub len: usize,
    /// Recorded shape, so a plan-driven executor can validate gradient
    /// shapes after the value itself has been released.
    pub shape: (usize, usize),
    /// Never released (leaves and the output).
    pub pinned: bool,
    /// Assigned buffer slot; `None` for pinned or zero-length values.
    pub slot: Option<usize>,
}

/// One provably-safe in-place opportunity: node `node` could write its
/// output over input `src` (wired at `input_pos`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AliasEntry {
    pub node: usize,
    pub input_pos: usize,
    pub src: usize,
}

/// A buffer-reuse plan for one recorded tape, emitted by [`plan_memory`]
/// and proven by [`check_memplan`] before any executor consumes it.
#[derive(Clone, Debug)]
pub struct MemPlan {
    /// One entry per tape node, indexed by node.
    pub values: Vec<ValuePlan>,
    /// Slot capacities in scalars; slot `s` holds any value with
    /// `len <= slots[s]` whose interval does not overlap a co-tenant.
    pub slots: Vec<usize>,
    /// Provably-safe in-place pairs (advisory for the future plan-driven
    /// executor; the eager tape does not rewrite history).
    pub aliases: Vec<AliasEntry>,
    /// Non-leaf op nodes the output does not depend on, in index order.
    pub dead: Vec<usize>,
    /// Peak resident bytes under this plan: values live for their planned
    /// intervals plus gradient buffers over their backward lifetimes.
    pub planned_peak_bytes: usize,
    /// Peak resident bytes with no plan: every value held to the end plus
    /// the same gradient traffic. This is what the eager tape does today.
    pub baseline_peak_bytes: usize,
    /// Total bytes of slotted values over total slot bytes; 1.0 means no
    /// reuse, higher means the slots are shared across lifetimes.
    pub reuse_ratio: f64,
}

/// Compact numbers for audit reports and JSON artifacts.
#[derive(Clone, Copy, Debug)]
pub struct MemSummary {
    pub planned_peak_bytes: usize,
    pub baseline_peak_bytes: usize,
    pub slots: usize,
    pub reuse_ratio: f64,
    pub dead_ops: usize,
}

impl MemPlan {
    pub fn summary(&self) -> MemSummary {
        MemSummary {
            planned_peak_bytes: self.planned_peak_bytes,
            baseline_peak_bytes: self.baseline_peak_bytes,
            slots: self.slots.len(),
            reuse_ratio: self.reuse_ratio,
            dead_ops: self.dead.len(),
        }
    }
}

impl std::fmt::Display for MemSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "planned peak {} B (baseline {} B), {} slot(s), reuse x{:.2}, {} dead op(s)",
            self.planned_peak_bytes,
            self.baseline_peak_bytes,
            self.slots,
            self.reuse_ratio,
            self.dead_ops
        )
    }
}

/// Why a [`MemPlan`] failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemPlanError {
    /// Plan and graph disagree about how many nodes exist.
    NodeCount { plan: usize, graph: usize },
    /// An interval is self-inconsistent (def must equal the node index,
    /// last_use must lie in `def..=end_time`).
    MalformedInterval { node: usize, def: usize, last_use: usize },
    /// A pinned value (leaf or output) is scheduled for release, or holds
    /// a slot it must not occupy.
    PinnedReleased { node: usize },
    /// A value is released before a consumer that provably dereferences
    /// it (`needed` is the verifier's lower bound, `planned` the plan's).
    LivenessTooShort { node: usize, consumer: usize, needed: usize, planned: usize },
    /// Two values with overlapping intervals share a slot.
    SlotOverlap { slot: usize, a: usize, b: usize },
    /// A slot's capacity does not cover a tenant.
    SlotTooSmall { slot: usize, node: usize, len: usize, capacity: usize },
    /// A value references a slot the plan never declared.
    SlotOutOfRange { node: usize, slot: usize },
    /// An alias entry violates the in-place contract.
    IllegalAlias { node: usize, input_pos: usize, reason: &'static str },
    /// The plan's dead list disagrees with reachability from the output.
    DeadMismatch { node: usize, listed: bool },
}

impl std::fmt::Display for MemPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemPlanError::NodeCount { plan, graph } => {
                write!(f, "plan covers {plan} node(s) but the graph has {graph}")
            }
            MemPlanError::MalformedInterval { node, def, last_use } => {
                write!(f, "node {node} has a malformed interval [{def}, {last_use}]")
            }
            MemPlanError::PinnedReleased { node } => {
                write!(f, "pinned node {node} is scheduled for release or slotted")
            }
            MemPlanError::LivenessTooShort { node, consumer, needed, planned } => write!(
                f,
                "node {node} is released at t={planned} but node {consumer} \
                 dereferences it at t={needed}"
            ),
            MemPlanError::SlotOverlap { slot, a, b } => {
                write!(f, "slot {slot} hosts nodes {a} and {b} with overlapping lifetimes")
            }
            MemPlanError::SlotTooSmall { slot, node, len, capacity } => {
                write!(f, "slot {slot} holds {capacity} scalar(s) but node {node} needs {len}")
            }
            MemPlanError::SlotOutOfRange { node, slot } => {
                write!(f, "node {node} references undeclared slot {slot}")
            }
            MemPlanError::IllegalAlias { node, input_pos, reason } => {
                write!(f, "alias of node {node} onto input {input_pos} is illegal: {reason}")
            }
            MemPlanError::DeadMismatch { node, listed } => {
                if *listed {
                    write!(f, "node {node} is listed dead but the output depends on it")
                } else {
                    write!(f, "node {node} is dead but missing from the dead list")
                }
            }
        }
    }
}

impl Tape {
    /// Lowers this tape into its typed op-graph view. `output` is the loss
    /// node when the tape will be differentiated; `None` analyzes the
    /// forward pass alone (nothing reachable, everything dead).
    pub fn op_graph(&self, output: Option<Tensor>) -> OpGraph {
        let nodes = (0..self.len())
            .map(|i| {
                let node = self.node(i);
                OpNode {
                    index: i,
                    op: node.op.name(),
                    shape: node.value.shape(),
                    len: node.value.len(),
                    inputs: node.inputs.iter().map(|t| t.index()).collect(),
                    is_leaf: node.inputs.is_empty(),
                    is_param: node.param.is_some(),
                    grad_reads: node.op.grad_reads(),
                }
            })
            .collect();
        OpGraph { nodes, output: output.map(|t| t.index()) }
    }

    /// Plans buffer reuse for a backward sweep from `output` and proves
    /// the plan with [`check_memplan`] before returning it.
    ///
    /// # Panics
    /// Panics (through telemetry, event `dataflow.bad_memplan`) if the
    /// generated plan fails its own verifier — executing under a bad plan
    /// would read released buffers, so continuing is never an option.
    pub fn memplan(&self, output: Tensor) -> MemPlan {
        let graph = self.op_graph(Some(output));
        let plan = plan_memory(&graph);
        if let Err(err) = check_memplan(&graph, &plan) {
            deny_memplan(&err);
        }
        if sane_telemetry::active() {
            sane_telemetry::gauge_max(
                "dataflow.planned_peak_bytes",
                plan.planned_peak_bytes as f64,
            );
            sane_telemetry::gauge_max(
                "dataflow.baseline_peak_bytes",
                plan.baseline_peak_bytes as f64,
            );
        }
        plan
    }
}

/// Computes liveness, slots, aliases and peak predictions for one graph.
/// Pure: no telemetry, no panics, deterministic for a given graph.
pub fn plan_memory(graph: &OpGraph) -> MemPlan {
    let n = graph.nodes.len();
    let end = graph.end_time();
    let reach = graph.reachable();
    let fanout = graph.fanout();

    // Liveness: def at the node's own forward timestamp; last use is the
    // max over forward consumers, declared backward reads, and (for
    // pinned values) the end of the timeline.
    let mut last_use: Vec<usize> = (0..n).collect();
    for c in 0..n {
        for (p, &u) in graph.nodes[c].inputs.iter().enumerate() {
            last_use[u] = last_use[u].max(c);
            if reach[c] && graph.nodes[c].grad_reads.reads_input(p) {
                last_use[u] = last_use[u].max(graph.bwd_time(c));
            }
        }
    }
    for v in 0..n {
        if reach[v] && !graph.nodes[v].is_leaf && graph.nodes[v].grad_reads.out {
            last_use[v] = last_use[v].max(graph.bwd_time(v));
        }
        if graph.pinned(v) {
            last_use[v] = end;
        }
    }

    // In-place aliases: node v may write over input u iff the op's kernel
    // is elementwise in that position, shapes match, v is u's only
    // consumer, u is not pinned, and nothing after v's forward step —
    // including v's own backward — dereferences u. The last condition is
    // exactly `last_use[u] == def(v)`.
    let mut aliases = Vec::new();
    for v in 0..n {
        for (p, &u) in graph.nodes[v].inputs.iter().enumerate() {
            if inplace_positions(graph.nodes[v].op).contains(&p)
                && graph.nodes[u].shape == graph.nodes[v].shape
                && fanout[u] == 1
                && !graph.pinned(u)
                && last_use[u] == v
            {
                aliases.push(AliasEntry { node: v, input_pos: p, src: u });
            }
        }
    }

    // Greedy linear-scan slot coloring over def order. Expiry is strict
    // (`last_use < def`): a value read by the op being computed still
    // interferes with that op's output.
    let mut slots: Vec<usize> = Vec::new();
    let mut assignment: Vec<Option<usize>> = vec![None; n];
    let mut active: Vec<(usize, usize)> = Vec::new(); // (last_use, slot)
    let mut free: Vec<usize> = Vec::new();
    for v in 0..n {
        if graph.pinned(v) || graph.nodes[v].len == 0 {
            continue;
        }
        active.retain(|&(lu, s)| {
            if lu < v {
                free.push(s);
                false
            } else {
                true
            }
        });
        let len = graph.nodes[v].len;
        // Best fit: the smallest free slot that already covers `len`;
        // otherwise grow the largest free slot; otherwise open a new one.
        // Ties break on slot id for determinism.
        free.sort_unstable();
        let mut best_fit: Option<usize> = None; // position in `free`
        let mut largest: Option<usize> = None;
        for (k, &s) in free.iter().enumerate() {
            if slots[s] >= len && best_fit.is_none_or(|b| slots[s] < slots[free[b]]) {
                best_fit = Some(k);
            }
            if largest.is_none_or(|l| slots[s] > slots[free[l]]) {
                largest = Some(k);
            }
        }
        let slot = match best_fit.or(largest) {
            Some(k) => free.swap_remove(k),
            None => {
                slots.push(0);
                slots.len() - 1
            }
        };
        slots[slot] = slots[slot].max(len);
        assignment[v] = Some(slot);
        active.push((last_use[v], slot));
    }

    let dead: Vec<usize> = (0..n).filter(|&v| !graph.nodes[v].is_leaf && !reach[v]).collect();

    // Peak prediction: an exact event sweep over value intervals plus
    // gradient intervals. Gradients are modeled per node: born at the
    // backward step of the node's latest-processed consumer (the seed for
    // the output node is born when the backward sweep starts), released
    // at the node's own backward step, except parameter gradients which
    // the caller keeps until the optimizer step.
    let mut grad_intervals: Vec<(usize, usize, usize)> = Vec::new(); // (start, end, bytes)
    for v in 0..n {
        if !reach[v] || graph.nodes[v].len == 0 {
            continue;
        }
        let consumers: Vec<usize> =
            (0..n).filter(|&c| reach[c] && graph.nodes[c].inputs.contains(&v)).collect();
        let mut start = consumers.iter().map(|&c| graph.bwd_time(c)).min();
        if graph.output == Some(v) {
            start = Some(start.map_or(n, |s| s.min(n)));
        }
        let Some(start) = start else { continue };
        let g_end = if graph.nodes[v].is_param { end } else { graph.bwd_time(v) };
        grad_intervals.push((start, g_end, graph.nodes[v].len * 4));
    }
    let sweep = |value_end: &dyn Fn(usize) -> usize| -> usize {
        let mut delta = vec![0i64; end + 2];
        for v in 0..n {
            let bytes = (graph.nodes[v].len * 4) as i64;
            delta[v] += bytes;
            delta[value_end(v) + 1] -= bytes;
        }
        for &(s, e, b) in &grad_intervals {
            delta[s] += b as i64;
            delta[e + 1] -= b as i64;
        }
        let mut peak = 0i64;
        let mut cur = 0i64;
        for d in delta {
            cur += d;
            peak = peak.max(cur);
        }
        peak as usize
    };
    let planned_peak_bytes = sweep(&|v| last_use[v]);
    let baseline_peak_bytes = sweep(&|_| end);

    let slotted_bytes: usize =
        (0..n).filter(|&v| assignment[v].is_some()).map(|v| graph.nodes[v].len * 4).sum();
    let slot_bytes: usize = slots.iter().map(|c| c * 4).sum();
    let reuse_ratio = if slot_bytes == 0 { 1.0 } else { slotted_bytes as f64 / slot_bytes as f64 };

    let values = (0..n)
        .map(|v| ValuePlan {
            def: v,
            last_use: last_use[v],
            len: graph.nodes[v].len,
            shape: graph.nodes[v].shape,
            pinned: graph.pinned(v),
            slot: assignment[v],
        })
        .collect();

    MemPlan { values, slots, aliases, dead, planned_peak_bytes, baseline_peak_bytes, reuse_ratio }
}

/// Proves a [`MemPlan`] safe against its graph, recomputing reachability
/// and every liveness lower bound independently of [`plan_memory`].
///
/// The checks are one-sided in the safety direction: a plan that keeps a
/// value alive *longer* than necessary passes (it only wastes memory); a
/// plan that releases a value any consumer still dereferences, overlaps
/// slot tenants, undersizes a slot, claims an unproven alias, or
/// mislabels dead ops is rejected.
pub fn check_memplan(graph: &OpGraph, plan: &MemPlan) -> Result<(), MemPlanError> {
    let n = graph.nodes.len();
    if plan.values.len() != n {
        return Err(MemPlanError::NodeCount { plan: plan.values.len(), graph: n });
    }
    let end = graph.end_time();
    let reach = graph.reachable();
    let fanout = graph.fanout();

    // Interval well-formedness and pinning.
    for (v, vp) in plan.values.iter().enumerate() {
        if vp.def != v || vp.last_use < vp.def || vp.last_use > end {
            return Err(MemPlanError::MalformedInterval {
                node: v,
                def: vp.def,
                last_use: vp.last_use,
            });
        }
        let pinned = graph.pinned(v);
        if pinned && (vp.last_use != end || vp.slot.is_some() || !vp.pinned) {
            return Err(MemPlanError::PinnedReleased { node: v });
        }
    }

    // Liveness lower bounds, recomputed from the graph edge by edge.
    for c in 0..n {
        for (p, &u) in graph.nodes[c].inputs.iter().enumerate() {
            let mut needed = c; // forward read
            if reach[c] && graph.nodes[c].grad_reads.reads_input(p) {
                needed = needed.max(graph.bwd_time(c));
            }
            if plan.values[u].last_use < needed {
                return Err(MemPlanError::LivenessTooShort {
                    node: u,
                    consumer: c,
                    needed,
                    planned: plan.values[u].last_use,
                });
            }
        }
    }
    for v in 0..n {
        if reach[v] && !graph.nodes[v].is_leaf && graph.nodes[v].grad_reads.out {
            let needed = graph.bwd_time(v);
            if plan.values[v].last_use < needed {
                return Err(MemPlanError::LivenessTooShort {
                    node: v,
                    consumer: v,
                    needed,
                    planned: plan.values[v].last_use,
                });
            }
        }
    }

    // Slot discipline: declared, sized, and exclusively tenanted.
    let mut by_slot: Vec<Vec<usize>> = vec![Vec::new(); plan.slots.len()];
    for (v, vp) in plan.values.iter().enumerate() {
        let Some(s) = vp.slot else { continue };
        if s >= plan.slots.len() {
            return Err(MemPlanError::SlotOutOfRange { node: v, slot: s });
        }
        if plan.slots[s] < vp.len {
            return Err(MemPlanError::SlotTooSmall {
                slot: s,
                node: v,
                len: vp.len,
                capacity: plan.slots[s],
            });
        }
        by_slot[s].push(v);
    }
    for (s, tenants) in by_slot.iter().enumerate() {
        // Values arrive in def order (ascending node index), so adjacent
        // pairs suffice for pairwise disjointness.
        for w in tenants.windows(2) {
            let (a, b) = (w[0], w[1]);
            if plan.values[a].last_use >= plan.values[b].def {
                return Err(MemPlanError::SlotOverlap { slot: s, a, b });
            }
        }
    }

    // Aliases: each claimed pair re-proven from the graph.
    for al in &plan.aliases {
        let AliasEntry { node, input_pos, src } = *al;
        let reason = if node >= n || input_pos >= graph.nodes[node].inputs.len() {
            Some("no such wiring")
        } else if graph.nodes[node].inputs[input_pos] != src {
            Some("source is not wired at that position")
        } else if !inplace_positions(graph.nodes[node].op).contains(&input_pos) {
            Some("op kernel is not in-place capable at that position")
        } else if graph.nodes[node].grad_reads.reads_input(input_pos) {
            Some("op backward dereferences the overwritten input")
        } else if graph.nodes[src].shape != graph.nodes[node].shape {
            Some("shapes differ")
        } else if fanout[src] != 1 {
            Some("source has other consumers")
        } else if graph.pinned(src) {
            Some("source is pinned")
        } else if plan.values[src].last_use > node {
            Some("source outlives the overwrite")
        } else {
            None
        };
        if let Some(reason) = reason {
            return Err(MemPlanError::IllegalAlias { node, input_pos, reason });
        }
    }

    // Dead list: exactly the unreachable non-leaf ops, both directions.
    let mut listed = vec![false; n];
    for &d in &plan.dead {
        if d >= n || graph.nodes[d].is_leaf || reach[d] {
            return Err(MemPlanError::DeadMismatch {
                node: d.min(n.saturating_sub(1)),
                listed: true,
            });
        }
        listed[d] = true;
    }
    for v in 0..n {
        if !graph.nodes[v].is_leaf && !reach[v] && !listed[v] {
            return Err(MemPlanError::DeadMismatch { node: v, listed: false });
        }
    }

    Ok(())
}

/// Escalates a failed memplan check: emits a telemetry error event and
/// panics. Executing under an unsound plan would read released buffers,
/// so continuing is never an option (same policy as
/// [`crate::analysis::deny_shadow`]).
///
/// # Panics
/// Always panics.
pub(crate) fn deny_memplan(err: &MemPlanError) -> ! {
    sane_telemetry::error("dataflow.bad_memplan", &[("report", err.to_string().into())]);
    panic!("tape produced an unsound memory plan: {err}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::tape::VarStore;

    #[test]
    fn empty_tape_plans_clean() {
        let tape = Tape::new(0);
        let graph = tape.op_graph(None);
        let plan = plan_memory(&graph);
        assert!(check_memplan(&graph, &plan).is_ok());
        assert_eq!(plan.planned_peak_bytes, 0);
        assert_eq!(plan.baseline_peak_bytes, 0);
        assert!(plan.slots.is_empty());
        assert!(plan.dead.is_empty());
    }

    #[test]
    fn single_op_tape_pins_leaf_and_output() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 2, vec![1.0; 4]));
        let loss = tape.sum_all(x);
        let plan = tape.memplan(loss);
        assert!(plan.values[x.index()].pinned, "leaf must be pinned");
        assert!(plan.values[loss.index()].pinned, "output must be pinned");
        assert!(plan.values.iter().all(|v| v.slot.is_none()), "nothing to slot");
        assert!(plan.dead.is_empty());
    }

    #[test]
    fn backward_only_use_extends_liveness_to_backward_step() {
        let mut store = VarStore::new();
        let w = store.add("w", Matrix::from_vec(2, 2, vec![0.5; 4]));
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 2, vec![1.0; 4]));
        let wt = tape.param(&store, w);
        let h = tape.matmul(x, wt);
        let a = tape.relu(h);
        let loss = tape.mean_all(a);
        let graph = tape.op_graph(Some(loss));
        let plan = tape.memplan(loss);
        // relu's backward reads its own output: after mean_all consumes it
        // in the forward pass, `a` is used only in the backward sweep.
        assert_eq!(plan.values[a.index()].last_use, graph.bwd_time(a.index()));
        // relu does not read its input, and matmul's backward is h's
        // producer, not consumer — h dies at relu's forward step.
        assert_eq!(plan.values[h.index()].last_use, a.index());
    }

    #[test]
    fn zero_sized_values_get_no_slot() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::zeros(0, 5));
        let a = tape.relu(x);
        let b = tape.relu(a);
        let loss = tape.sum_all(b);
        let plan = tape.memplan(loss);
        assert!(plan.values.iter().all(|v| v.slot.is_none()));
        assert!(check_memplan(&tape.op_graph(Some(loss)), &plan).is_ok());
    }

    #[test]
    fn forward_only_chain_reuses_slots() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(8, 8, vec![1.0; 64]));
        let mut h = x;
        for _ in 0..6 {
            h = tape.add_scalar(h, 1.0); // backward reads nothing
        }
        let loss = tape.sum_all(h);
        let plan = tape.memplan(loss);
        let slotted = plan.values.iter().filter(|v| v.slot.is_some()).count();
        assert_eq!(slotted, 6, "every intermediate between the pinned leaf and output");
        assert!(
            plan.slots.len() < slotted,
            "a dead-after-one-step chain must share slots, got {} slot(s) for {slotted} values",
            plan.slots.len()
        );
        assert!(plan.reuse_ratio > 1.0);
        assert!(plan.planned_peak_bytes < plan.baseline_peak_bytes);
    }

    #[test]
    fn activation_chain_interferes_through_backward() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(4, 4, vec![1.0; 16]));
        let a = tape.relu(x);
        let b = tape.relu(a);
        let loss = tape.sum_all(b);
        let graph = tape.op_graph(Some(loss));
        let plan = tape.memplan(loss);
        // Each relu output is read at its own backward step, so the two
        // activations interfere and may not share a slot.
        assert_eq!(plan.values[a.index()].last_use, graph.bwd_time(a.index()));
        assert_ne!(plan.values[a.index()].slot, plan.values[b.index()].slot);
    }

    #[test]
    fn inplace_alias_found_for_elementwise_nonreading_op() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(3, 3, vec![1.0; 9]));
        let y = tape.constant(Matrix::from_vec(3, 3, vec![2.0; 9]));
        let h = tape.add(x, y);
        let a = tape.relu(h); // relu reads out, not input -> h may be overwritten
        let loss = tape.sum_all(a);
        let plan = tape.memplan(loss);
        assert!(
            plan.aliases.contains(&AliasEntry { node: a.index(), input_pos: 0, src: h.index() }),
            "expected relu-over-add alias, got {:?}",
            plan.aliases
        );
    }

    #[test]
    fn no_alias_when_backward_reads_the_input() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(3, 3, vec![1.0; 9]));
        let y = tape.constant(Matrix::from_vec(3, 3, vec![2.0; 9]));
        let h = tape.add(x, y);
        let a = tape.leaky_relu(h, 0.1); // backward reads inputs[0]
        let loss = tape.sum_all(a);
        let plan = tape.memplan(loss);
        assert!(
            plan.aliases.iter().all(|al| al.node != a.index()),
            "leaky_relu dereferences its input in backward, got {:?}",
            plan.aliases
        );
    }

    #[test]
    fn dead_ops_are_listed_and_matched() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 2, vec![1.0; 4]));
        let wasted = tape.relu(x);
        let _wasted2 = tape.relu(wasted);
        let loss = tape.sum_all(x);
        let plan = tape.memplan(loss);
        assert_eq!(plan.dead, vec![wasted.index(), _wasted2.index()]);
    }

    #[test]
    fn verifier_rejects_overlapping_slots() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(4, 4, vec![1.0; 16]));
        let a = tape.relu(x);
        let b = tape.relu(a);
        let loss = tape.sum_all(b);
        let graph = tape.op_graph(Some(loss));
        let mut plan = plan_memory(&graph);
        // Corrupt: force both interfering activations into slot 0.
        plan.values[a.index()].slot = Some(0);
        plan.values[b.index()].slot = Some(0);
        assert!(matches!(
            check_memplan(&graph, &plan),
            Err(MemPlanError::SlotOverlap { slot: 0, .. })
        ));
    }

    #[test]
    fn verifier_rejects_early_release() {
        let mut store = VarStore::new();
        let w = store.add("w", Matrix::from_vec(2, 2, vec![0.5; 4]));
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 2, vec![1.0; 4]));
        let wt = tape.param(&store, w);
        let h = tape.matmul(x, wt);
        let loss = tape.sum_all(h);
        let graph = tape.op_graph(Some(loss));
        let mut plan = plan_memory(&graph);
        // Corrupt: matmul's backward reads h's inputs; the verifier must
        // notice when the plan pretends x-reads end at the forward step.
        // (x is pinned as a leaf, so corrupt the interval wholesale.)
        plan.values[x.index()].last_use = h.index();
        assert!(check_memplan(&graph, &plan).is_err());
    }

    #[test]
    fn verifier_rejects_undersized_slot() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(4, 4, vec![1.0; 16]));
        let a = tape.add_scalar(x, 1.0);
        let b = tape.add_scalar(a, 1.0);
        let loss = tape.sum_all(b);
        let graph = tape.op_graph(Some(loss));
        let mut plan = plan_memory(&graph);
        let s = plan.values[a.index()].slot.expect("a is slotted"); // lint:allow(expect) -- a is slotted
        plan.slots[s] = 1;
        assert!(matches!(check_memplan(&graph, &plan), Err(MemPlanError::SlotTooSmall { .. })));
    }

    #[test]
    fn verifier_rejects_fabricated_alias() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(3, 3, vec![1.0; 9]));
        let h = tape.add_scalar(x, 1.0);
        let a = tape.leaky_relu(h, 0.1);
        let loss = tape.sum_all(a);
        let graph = tape.op_graph(Some(loss));
        let mut plan = plan_memory(&graph);
        plan.aliases.push(AliasEntry { node: a.index(), input_pos: 0, src: h.index() });
        assert!(matches!(check_memplan(&graph, &plan), Err(MemPlanError::IllegalAlias { .. })));
    }

    #[test]
    fn verifier_rejects_wrong_dead_list() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 2, vec![1.0; 4]));
        let _wasted = tape.relu(x);
        let loss = tape.sum_all(x);
        let graph = tape.op_graph(Some(loss));
        let mut plan = plan_memory(&graph);
        plan.dead.clear(); // hide the dead op
        assert!(matches!(
            check_memplan(&graph, &plan),
            Err(MemPlanError::DeadMismatch { listed: false, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "unsound memory plan")]
    fn deny_memplan_panics_with_the_report() {
        deny_memplan(&MemPlanError::SlotOverlap { slot: 0, a: 1, b: 2 });
    }

    /// The load-bearing guard for every [`GradReads`] override: gradients
    /// under plan-driven release must be bitwise identical to the eager
    /// sweep. An op that under-declares its backward reads would consume a
    /// released (empty) buffer here and panic or diverge.
    #[test]
    fn measured_backward_matches_eager_bitwise_and_reduces_peak() {
        let build = || {
            let mut store = VarStore::new();
            let w1 =
                store.add("w1", Matrix::from_fn(16, 16, |i, j| ((i * 7 + j) % 5) as f32 * 0.1));
            let w2 =
                store.add("w2", Matrix::from_fn(16, 16, |i, j| ((i + 3 * j) % 7) as f32 * 0.05));
            let mut tape = Tape::new(11);
            let x = tape.constant(Matrix::from_fn(16, 16, |i, j| (i + j) as f32 * 0.01));
            let p1 = tape.param(&store, w1);
            let p2 = tape.param(&store, w2);
            let h = tape.matmul(x, p1);
            let a = tape.relu(h);
            let d = tape.dropout(a, 0.25);
            let h2 = tape.matmul(d, p2);
            let b = tape.add_scalar(h2, 0.1);
            let c = tape.tanh(b);
            let loss = tape.mean_all(c);
            (tape, store, loss)
        };

        let (mut tape, store, loss) = build();
        let eager = tape.backward(loss);
        let plan = tape.memplan(loss);
        let (planned, stats) = tape.backward_measured(loss, Some(&plan));
        for id in store.ids() {
            let (a, b) = (eager.get(id), planned.get(id));
            match (a, b) {
                (Some(a), Some(b)) => assert_eq!(a.data(), b.data(), "param {id:?} diverged"),
                (None, None) => {}
                _ => panic!("param {id:?}: one sweep produced a gradient, the other did not"),
            }
        }
        assert!(stats.released_values > 0, "the fixture has releasable intermediates");

        // Identical tape, no plan: nothing released, peak strictly higher.
        let (mut tape2, _store2, loss2) = build();
        let (base_grads, base) = tape2.backward_measured(loss2, None);
        assert_eq!(base.released_values, 0);
        assert!(
            stats.peak_resident_bytes < base.peak_resident_bytes,
            "plan must reduce peak: {} vs {}",
            stats.peak_resident_bytes,
            base.peak_resident_bytes
        );
        for id in store.ids() {
            if let (Some(a), Some(b)) = (eager.get(id), base_grads.get(id)) {
                assert_eq!(a.data(), b.data(), "instrumented no-plan sweep diverged");
            }
        }
        eager.recycle();
        planned.recycle();
        base_grads.recycle();
    }

    /// The fused attention op declares the narrowest contract on the tape —
    /// backward reads only the messages; scores, output and alpha never
    /// survive as tape dependencies. Guard it the same way as the generic
    /// fixture: plan-driven release must stay bitwise equal to eager, and
    /// the planner must actually exploit the declaration by releasing
    /// intermediates (the score chain) before the backward sweep ends.
    #[test]
    fn fused_segment_attention_contract_releases_scores_and_stays_bitwise() {
        use crate::ops::Segments;
        let build = || {
            let segs = std::sync::Arc::new(Segments::from_lengths(&[5, 0, 7, 4]));
            let total = segs.total_len();
            let mut store = VarStore::new();
            let pm =
                store.add("m", Matrix::from_fn(total, 8, |i, j| ((i * 5 + j) % 9) as f32 * 0.1));
            let ps = store.add("s", Matrix::from_fn(total, 1, |i, _| (i % 7) as f32 * 0.2 - 0.5));
            let mut tape = Tape::new(13);
            let m = tape.param(&store, pm);
            let s0 = tape.param(&store, ps);
            let s1 = tape.tanh(s0); // an intermediate the planner can retire
            let att = tape.segment_attention(s1, m, &segs);
            let sq = tape.mul(att, att);
            let loss = tape.mean_all(sq);
            (tape, store, loss)
        };
        let (mut tape, store, loss) = build();
        let eager = tape.backward(loss);
        let plan = tape.memplan(loss);
        let (planned, stats) = tape.backward_measured(loss, Some(&plan));
        for id in store.ids() {
            match (eager.get(id), planned.get(id)) {
                (Some(a), Some(b)) => assert_eq!(a.data(), b.data(), "param {id:?} diverged"),
                (None, None) => {}
                _ => panic!("param {id:?}: one sweep produced a gradient, the other did not"),
            }
        }
        assert!(
            stats.released_values > 0,
            "the score chain must be releasable under the fused op's GradReads"
        );
        eager.recycle();
        planned.recycle();
    }

    #[test]
    fn plans_are_deterministic() {
        let build = || {
            let mut store = VarStore::new();
            let w = store.add("w", Matrix::from_vec(4, 4, vec![0.5; 16]));
            let mut tape = Tape::new(3);
            let x = tape.constant(Matrix::from_vec(4, 4, vec![1.0; 16]));
            let wt = tape.param(&store, w);
            let h = tape.matmul(x, wt);
            let a = tape.relu(h);
            let s = tape.add_scalar(a, 0.5);
            let loss = tape.mean_all(s);
            (tape.memplan(loss), store)
        };
        let (p1, _s1) = build();
        let (p2, _s2) = build();
        assert_eq!(p1.planned_peak_bytes, p2.planned_peak_bytes);
        assert_eq!(p1.slots, p2.slots);
        assert_eq!(p1.aliases, p2.aliases);
        let slots1: Vec<_> = p1.values.iter().map(|v| v.slot).collect();
        let slots2: Vec<_> = p2.values.iter().map(|v| v.slot).collect();
        assert_eq!(slots1, slots2);
    }
}
