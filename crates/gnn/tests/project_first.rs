//! SAGE-SUM, SAGE-MEAN, GIN and the MLP aggregator project their input
//! before they propagate it over the graph. The order they replace, which
//! propagated the input first and projected the aggregate, is equal in
//! exact arithmetic but rounds differently. These tests bound the two
//! orders against each other, forward value and every parameter gradient,
//! at 1, 2 and 4 threads.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sane_autodiff::equivalence::{fused_vs_chain, Equivalence};
use sane_autodiff::{Csr, Matrix, Tape, Tensor, VarStore};
use sane_gnn::agg::{GinAggregator, MlpAggregator, SageMeanAggregator, SageSumAggregator};
use sane_gnn::{GraphContext, NodeAggregator};
use sane_graph::Graph;

/// Bag-of-words width of the benchmark's cora-syn features.
const IN_DIM: usize = 716;
const OUT_DIM: usize = 32;
const NODES: usize = 64;

/// An element passes within this many ULPs or this absolute distance. On
/// these inputs the worst gap between the orders is 5.7e-6 absolute (a
/// GIN gradient); with 1e-6 of absolute slack, the worst is 116 ULPs for
/// GIN and 2048 for the MLP, whose outliers are small values. The budget
/// is about 1.4x the absolute and 2x GIN's ULP gap.
const BUDGET: Equivalence = Equivalence::Approximate { max_ulps: 256, atol: 8e-6 };

/// A hub joined to 40 nodes, a ring over the rest of the first 56, and
/// eight isolated nodes, so degrees run from 0 to 41.
fn ctx() -> GraphContext {
    let mut edges: Vec<(u32, u32)> = (1..=40).map(|v| (0, v)).collect();
    edges.extend((41..56).map(|v| (v, if v == 55 { 41 } else { v + 1 })));
    edges.extend([(3, 7), (7, 12), (12, 45), (45, 3)]);
    GraphContext::new(&Graph::from_edges(NODES, &edges))
}

/// About 1% nonzero, like dropped-out bag-of-words features, so every
/// product over it goes through its sparse view.
fn features() -> Matrix {
    Matrix::from_fn(NODES, IN_DIM, |r, c| {
        let k = (r * IN_DIM + c) as u64;
        if k.wrapping_mul(2_654_435_761).is_multiple_of(97) {
            1.0 + ((k as f32) * 0.37).sin().abs()
        } else {
            0.0
        }
    })
}

/// Gives every bias (and GIN's `ε`) a nonzero value: a fresh store holds
/// zeros there, which would hide where the bias is added.
fn perturb(store: &mut VarStore) {
    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        if store.value(id).rows() == 1 {
            let cols = store.value(id).cols();
            store.set(id, Matrix::from_fn(1, cols, |_, c| 0.3 + 0.05 * (c as f32).cos()));
        }
    }
}

/// Runs the aggregator's own forward against `old_order`, which records
/// the replaced order over the same parameters. Both stores number their
/// parameters from 0 in insertion order, so the aggregator's parameter
/// leaves carry the ids of the check's inputs, and its gradients land on
/// them.
fn check(
    agg: &dyn NodeAggregator,
    store: &VarStore,
    old_order: &dyn Fn(&mut Tape, Tensor, &[Tensor]) -> Tensor,
) -> Result<(), String> {
    let params = agg.params();
    assert!(params.iter().enumerate().all(|(i, p)| p.index() == i), "params in store order");
    assert_eq!(params.len(), store.len());
    let inputs: Vec<Matrix> = params.iter().map(|&p| store.value(p).clone()).collect();
    let ctx = ctx();
    let x = features();
    let new = |tape: &mut Tape, _: &[Tensor]| {
        let h = tape.constant(x.clone());
        agg.forward(tape, store, &ctx, h)
    };
    let old = |tape: &mut Tape, p: &[Tensor]| {
        let h = tape.constant(x.clone());
        old_order(tape, h, p)
    };
    let wanted = vec![true; inputs.len()];
    fused_vs_chain(BUDGET, &inputs, &wanted, &new, &old)
}

/// `spmm(adj, h) · W + b`, the replaced SAGE order.
fn propagate_then_project(tape: &mut Tape, adj: &Arc<Csr>, h: Tensor, p: &[Tensor]) -> Tensor {
    let agg = tape.spmm(adj, h);
    let z = tape.matmul(agg, p[0]);
    tape.add_bias(z, p[1])
}

#[test]
fn sage_sum_matches_propagate_then_project() {
    let mut store = VarStore::new();
    let agg = SageSumAggregator::new(&mut store, &mut StdRng::seed_from_u64(1), IN_DIM, OUT_DIM);
    perturb(&mut store);
    let sum = ctx().sum;
    check(&agg, &store, &|t, h, p| propagate_then_project(t, &sum, h, p)).unwrap();
}

#[test]
fn sage_mean_matches_propagate_then_project() {
    let mut store = VarStore::new();
    let agg = SageMeanAggregator::new(&mut store, &mut StdRng::seed_from_u64(2), IN_DIM, OUT_DIM);
    perturb(&mut store);
    let mean = ctx().mean;
    check(&agg, &store, &|t, h, p| propagate_then_project(t, &mean, h, p)).unwrap();
}

/// Parameters in store order: `ε`, `fc1.w`, `fc1.b`, `fc2.w`, `fc2.b`.
#[test]
fn gin_matches_combine_then_project() {
    let mut store = VarStore::new();
    let agg = GinAggregator::new(&mut store, &mut StdRng::seed_from_u64(3), IN_DIM, OUT_DIM);
    perturb(&mut store);
    let sum_no_self = ctx().sum_no_self;
    check(&agg, &store, &|t, h, p| {
        let one_plus_eps = t.add_scalar(p[0], 1.0);
        let self_term = t.mul_scalar_tensor(h, one_plus_eps);
        let neighbor_sum = t.spmm(&sum_no_self, h);
        let combined = t.add(self_term, neighbor_sum);
        let z1 = t.matmul(combined, p[1]);
        let z1 = t.add_bias(z1, p[2]);
        let a1 = t.relu(z1);
        let z2 = t.matmul(a1, p[3]);
        t.add_bias(z2, p[4])
    })
    .unwrap();
}

/// Parameters in store order: each layer's `w` then `b`.
#[test]
fn mlp_matches_sum_then_mlp() {
    let mut store = VarStore::new();
    let mut rng = StdRng::seed_from_u64(4);
    let agg = MlpAggregator::new(&mut store, &mut rng, IN_DIM, OUT_DIM, 16, 2);
    perturb(&mut store);
    let sum = ctx().sum;
    check(&agg, &store, &|t, h, p| {
        let mut x = t.spmm(&sum, h);
        for (i, layer) in p.chunks(2).enumerate() {
            if i > 0 {
                x = t.relu(x);
            }
            let z = t.matmul(x, layer[0]);
            x = t.add_bias(z, layer[1]);
        }
        x
    })
    .unwrap();
}
