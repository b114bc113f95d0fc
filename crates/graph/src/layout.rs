//! Message-passing layout: the edge-array view of `Ñ(v)` that attention
//! and set aggregators consume.
//!
//! For every destination node `v` (in node order) the layout lists the
//! sources of its incoming messages — first the self-loop `v`, then the
//! neighbors `N(v)` in sorted order. Messages into the same destination are
//! contiguous and described by [`Segments`], which is exactly what the
//! autodiff segment ops expect. Both endpoint lists are [`EdgeIndex`]es
//! whose by-target order is built here, once per graph, for the backward
//! passes that fold node gradients over each node's edges.

use std::sync::Arc;

use sane_autodiff::{EdgeIndex, Segments};

use crate::graph::Graph;

/// Precomputed gather/scatter indices for one graph.
#[derive(Clone)]
pub struct MessageLayout {
    /// Source node of each message (length = Σ (deg(v) + 1)).
    pub src: Arc<EdgeIndex>,
    /// Destination node of each message (grouped, non-decreasing, so its
    /// by-target order is the identity and its offsets are the segments').
    pub dst: Arc<EdgeIndex>,
    /// Segment boundaries: segment `v` covers the messages into node `v`.
    pub segments: Arc<Segments>,
    /// Message index of each node's self-loop (for ops that treat the
    /// central node specially, e.g. GIN's `(1 + ε) · h_v`).
    pub self_loop_pos: Arc<Vec<u32>>,
}

impl MessageLayout {
    /// Builds the layout for `Ñ(v) = {v} ∪ N(v)`.
    pub fn build(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let total = n + 2 * graph.num_edges();
        let mut src = Vec::with_capacity(total);
        let mut dst = Vec::with_capacity(total);
        let mut lengths = Vec::with_capacity(n);
        let mut self_loop_pos = Vec::with_capacity(n);
        for v in 0..n {
            self_loop_pos.push(src.len() as u32);
            src.push(v as u32);
            dst.push(v as u32);
            for &u in graph.neighbors(v) {
                src.push(u);
                dst.push(v as u32);
            }
            lengths.push(graph.degree(v) + 1);
        }
        let segments = Segments::from_lengths(&lengths);
        // Built now rather than in the first backward pass of a step.
        segments.owners();
        Self {
            src: Arc::new(EdgeIndex::with_order(src)),
            dst: Arc::new(EdgeIndex::with_order(dst)),
            segments: Arc::new(segments),
            self_loop_pos: Arc::new(self_loop_pos),
        }
    }

    /// Number of messages (edges incl. self-loops).
    pub fn num_messages(&self) -> usize {
        self.src.len()
    }

    /// Number of destination nodes.
    pub fn num_nodes(&self) -> usize {
        self.segments.num_segments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_of_path_graph() {
        // 0 - 1 - 2
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let l = MessageLayout::build(&g);
        assert_eq!(l.num_messages(), 3 + 4);
        assert_eq!(l.num_nodes(), 3);
        // Node 0: self + neighbor 1.
        assert_eq!(&l.src[l.segments.range(0)], &[0, 1]);
        // Node 1: self + neighbors 0, 2.
        assert_eq!(&l.src[l.segments.range(1)], &[1, 0, 2]);
        // dst is grouped.
        assert_eq!(&l.dst[l.segments.range(1)], &[1, 1, 1]);
        // Self-loop positions point at the right entries.
        for v in 0..3 {
            assert_eq!(l.src[l.self_loop_pos[v] as usize], v as u32);
            assert_eq!(l.dst[l.self_loop_pos[v] as usize], v as u32);
        }
    }

    /// The by-source order lists every message exactly once, ascending
    /// within each source; the destinations' order is the identity, with
    /// the segments as offsets.
    #[test]
    fn by_source_order_lists_every_message_once_ascending() {
        // A star on 1 with a tail 3 - 4, and the isolated node 5.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (1, 3), (3, 4)]);
        let l = MessageLayout::build(&g);
        let mut seen = vec![0; l.num_messages()];
        for u in 0..l.num_nodes() {
            let edges = l.src.edges_into(u);
            assert!(edges.windows(2).all(|w| w[0] < w[1]), "source {u}: {edges:?}");
            for &e in edges {
                assert_eq!(l.src[e as usize], u as u32);
                seen[e as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
        assert_eq!(l.src.edges_into(5), &[l.self_loop_pos[5]]);
        for v in 0..l.num_nodes() {
            let want: Vec<u32> = l.segments.range(v).map(|e| e as u32).collect();
            assert_eq!(l.dst.edges_into(v), &want[..]);
        }
        assert_eq!(l.segments.owners(), &l.dst[..]);
    }

    #[test]
    fn isolated_node_still_gets_self_loop() {
        let g = Graph::from_edges(2, &[]);
        let l = MessageLayout::build(&g);
        assert_eq!(l.num_messages(), 2);
        assert_eq!(&l.src[l.segments.range(0)], &[0]);
        assert_eq!(&l.src[l.segments.range(1)], &[1]);
    }
}
