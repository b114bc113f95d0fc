//! Layer aggregators (`O_l`) and skip-connection ops (`O_s`) — the
//! JK-Network side of the SANE search space (Table I).

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use sane_autodiff::{glorot_init, Matrix, ParamId, Tape, Tensor, VarStore};

/// The three layer aggregators of `O_l`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerAggKind {
    /// Concatenate the K layer outputs (output dim `K * d`).
    Concat,
    /// Elementwise maximum across layers (output dim `d`).
    Max,
    /// LSTM over the layer sequence with learned per-layer attention
    /// (output dim `d`), as in JK-Network's LSTM variant.
    Lstm,
}

impl LayerAggKind {
    /// All layer aggregators in Table I order.
    pub const ALL: [LayerAggKind; 3] =
        [LayerAggKind::Concat, LayerAggKind::Max, LayerAggKind::Lstm];

    /// Paper-style name.
    pub fn name(self) -> &'static str {
        match self {
            LayerAggKind::Concat => "CONCAT",
            LayerAggKind::Max => "MAX",
            LayerAggKind::Lstm => "LSTM",
        }
    }

    /// Parses a paper-style name (case insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        let upper = name.to_ascii_uppercase();
        Self::ALL.iter().copied().find(|k| k.name() == upper)
    }
}

impl std::fmt::Display for LayerAggKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The two skip ops of `O_s`: keep a layer's contribution or zero it out.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SkipOp {
    /// Pass the layer output to the layer aggregator unchanged.
    Identity,
    /// Contribute a zero tensor instead.
    Zero,
}

impl SkipOp {
    /// Both skip ops.
    pub const ALL: [SkipOp; 2] = [SkipOp::Identity, SkipOp::Zero];

    /// Paper-style name.
    pub fn name(self) -> &'static str {
        match self {
            SkipOp::Identity => "IDENTITY",
            SkipOp::Zero => "ZERO",
        }
    }

    /// Parses a paper-style name (case insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        let upper = name.to_ascii_uppercase();
        Self::ALL.iter().copied().find(|k| k.name() == upper)
    }

    /// Applies the op on the tape.
    pub fn apply(self, tape: &mut Tape, h: Tensor) -> Tensor {
        match self {
            SkipOp::Identity => h,
            SkipOp::Zero => tape.scale(h, 0.0),
        }
    }
}

impl std::fmt::Display for SkipOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

struct LstmParams {
    /// Input-to-gates `d x 4d`.
    wx: ParamId,
    /// Hidden-to-gates `d x 4d`.
    wh: ParamId,
    /// Gate bias `1 x 4d`.
    b: ParamId,
    /// Attention readout `d x 1`.
    attn: ParamId,
}

/// A built layer aggregator over `K` hidden states of width `dim`.
pub struct LayerAggregator {
    kind: LayerAggKind,
    dim: usize,
    lstm: Option<LstmParams>,
}

impl LayerAggregator {
    /// Builds a layer aggregator for layer outputs of width `dim`.
    pub fn new(kind: LayerAggKind, store: &mut VarStore, rng: &mut StdRng, dim: usize) -> Self {
        let lstm = (kind == LayerAggKind::Lstm).then(|| LstmParams {
            wx: store.add("layer_lstm.wx", glorot_init(dim, 4 * dim, rng)),
            wh: store.add("layer_lstm.wh", glorot_init(dim, 4 * dim, rng)),
            b: store.add("layer_lstm.b", Matrix::zeros(1, 4 * dim)),
            attn: store.add("layer_lstm.attn", glorot_init(dim, 1, rng)),
        });
        Self { kind, dim, lstm }
    }

    /// The aggregator kind.
    pub fn kind(&self) -> LayerAggKind {
        self.kind
    }

    /// Output width for `k` aggregated layers.
    pub fn out_dim(&self, k: usize) -> usize {
        match self.kind {
            LayerAggKind::Concat => k * self.dim,
            LayerAggKind::Max | LayerAggKind::Lstm => self.dim,
        }
    }

    /// Parameters (empty except for the LSTM variant).
    pub fn params(&self) -> Vec<ParamId> {
        match &self.lstm {
            Some(l) => vec![l.wx, l.wh, l.b, l.attn],
            None => Vec::new(),
        }
    }

    /// Aggregates the per-layer hidden states (each `n x dim`).
    ///
    /// # Panics
    /// Panics if `layers` is empty or widths disagree with `dim`.
    pub fn forward(&self, tape: &mut Tape, store: &VarStore, layers: &[Tensor]) -> Tensor {
        assert!(!layers.is_empty(), "layer aggregator needs at least one layer");
        for &t in layers {
            assert_eq!(tape.value(t).cols(), self.dim, "layer width mismatch");
        }
        match self.kind {
            LayerAggKind::Concat => tape.concat_cols(layers),
            LayerAggKind::Max => tape.max_stack(layers),
            LayerAggKind::Lstm => self.lstm_forward(tape, store, layers),
        }
    }

    fn lstm_forward(&self, tape: &mut Tape, store: &VarStore, layers: &[Tensor]) -> Tensor {
        let p = self.lstm.as_ref().expect("LSTM params exist for the Lstm kind"); // lint:allow(expect) -- LSTM params exist for the Lstm kind
        let n = tape.value(layers[0]).rows();
        let d = self.dim;
        let wx = tape.param(store, p.wx);
        let wh = tape.param(store, p.wh);
        let b = tape.param(store, p.b);
        let attn = tape.param(store, p.attn);

        let mut h = tape.zeros(n, d);
        let mut c = tape.zeros(n, d);
        let mut scores = Vec::with_capacity(layers.len());
        for &x in layers {
            let zx = tape.matmul(x, wx);
            let zh = tape.matmul(h, wh);
            let zsum = tape.add(zx, zh);
            let z = tape.add_bias(zsum, b);
            let iz = tape.slice_cols(z, 0, d);
            let i = tape.sigmoid(iz);
            let fz = tape.slice_cols(z, d, 2 * d);
            let f = tape.sigmoid(fz);
            let oz = tape.slice_cols(z, 2 * d, 3 * d);
            let o = tape.sigmoid(oz);
            let gz = tape.slice_cols(z, 3 * d, 4 * d);
            let g = tape.tanh(gz);
            let keep = tape.mul(f, c);
            let write = tape.mul(i, g);
            c = tape.add(keep, write);
            let c_act = tape.tanh(c);
            h = tape.mul(o, c_act);
            scores.push(tape.matmul(h, attn));
        }
        // Attention over layers: softmax the per-layer scores per node, then
        // take the weighted sum of the original layer embeddings.
        let score_mat = tape.concat_cols(&scores);
        let alpha = tape.softmax_rows(score_mat);
        let mut out: Option<Tensor> = None;
        for (t, &x) in layers.iter().enumerate() {
            let a_t = tape.slice_cols(alpha, t, t + 1);
            let weighted = tape.mul_col_broadcast(x, a_t);
            out = Some(match out {
                Some(acc) => tape.add(acc, weighted),
                None => weighted,
            });
        }
        out.expect("layers is non-empty") // lint:allow(expect) -- layers is non-empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn three_layers(tape: &mut Tape, n: usize, d: usize) -> Vec<Tensor> {
        (0..3)
            .map(|k| tape.constant(Matrix::from_fn(n, d, |r, c| (k * 10 + r + c) as f32 * 0.1)))
            .collect()
    }

    #[test]
    fn concat_width_is_k_times_d() {
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let agg = LayerAggregator::new(LayerAggKind::Concat, &mut store, &mut rng, 4);
        let mut tape = Tape::new(0);
        let layers = three_layers(&mut tape, 5, 4);
        let out = agg.forward(&mut tape, &store, &layers);
        assert_eq!(tape.value(out).shape(), (5, 12));
        assert_eq!(agg.out_dim(3), 12);
        assert!(agg.params().is_empty());
    }

    #[test]
    fn max_picks_last_layer_for_monotone_inputs() {
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let agg = LayerAggregator::new(LayerAggKind::Max, &mut store, &mut rng, 4);
        let mut tape = Tape::new(0);
        let layers = three_layers(&mut tape, 5, 4);
        let out = agg.forward(&mut tape, &store, &layers);
        // Layer 2 dominates everywhere by construction.
        assert_eq!(tape.value(out), tape.value(layers[2]));
    }

    #[test]
    fn lstm_attention_output_is_convex_combination() {
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let agg = LayerAggregator::new(LayerAggKind::Lstm, &mut store, &mut rng, 3);
        let mut tape = Tape::new(0);
        let lo = tape.constant(Matrix::full(4, 3, -1.0));
        let hi = tape.constant(Matrix::full(4, 3, 1.0));
        let out = agg.forward(&mut tape, &store, &[lo, hi]);
        assert_eq!(tape.value(out).shape(), (4, 3));
        // A convex combination of -1 and 1 stays in [-1, 1].
        assert!(tape.value(out).max_abs() <= 1.0 + 1e-5);
        assert_eq!(agg.params().len(), 4);
    }

    #[test]
    fn lstm_params_receive_gradients() {
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let agg = LayerAggregator::new(LayerAggKind::Lstm, &mut store, &mut rng, 3);
        let mut tape = Tape::new(0);
        let layers = three_layers(&mut tape, 4, 3);
        let out = agg.forward(&mut tape, &store, &layers);
        let loss = tape.mean_all(out);
        let grads = tape.backward(loss);
        for p in agg.params() {
            assert!(grads.get(p).is_some(), "missing gradient for {}", store.name(p));
        }
    }

    #[test]
    fn skip_zero_blocks_contribution() {
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::full(2, 2, 7.0));
        let z = SkipOp::Zero.apply(&mut tape, h);
        assert!(tape.value(z).data().iter().all(|&v| v == 0.0));
        let id = SkipOp::Identity.apply(&mut tape, h);
        assert_eq!(id, h);
    }

    #[test]
    fn names_roundtrip() {
        for k in LayerAggKind::ALL {
            assert_eq!(LayerAggKind::parse(k.name()), Some(k));
        }
        for s in SkipOp::ALL {
            assert_eq!(SkipOp::parse(s.name()), Some(s));
        }
    }
}
