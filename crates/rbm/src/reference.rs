//! The retained naive reference implementation of the three-layer RBM.
//!
//! This is the seed's per-instance, `Vec<Vec<f64>>`-backed network, kept
//! verbatim (modulo visibility) as the ground truth that the flat-matrix
//! [`crate::network::RbmNetwork`] is tested against: the equivalence suite
//! (`crate::equivalence`) proves that hidden/visible/class
//! probabilities, free-energy prediction, reconstruction errors, and
//! `train_batch` weight updates of the two implementations agree to within
//! 1e-12. Training, errors, and probabilities are in fact designed to be
//! bitwise-identical — both consume the RNG stream in the same
//! per-instance order and accumulate every sum in the same element order;
//! only `predict` re-associates its free-energy sum (the flat version
//! hoists the class-independent `v·w` term), so predictions agree up to
//! last-ulp rounding of near-exact ties.
//!
//! The reference is deliberately slow — one heap allocation per matrix row,
//! fresh `Vec`s in every probability call, scalar per-instance CD-k — and
//! is compiled only into the crate's unit tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbm_im_streams::{Instance, MiniBatch};

use crate::network::RbmNetworkConfig;

/// The seed's three-layer RBM: nested-`Vec` storage, per-instance CD-k.
#[derive(Debug, Clone)]
pub struct ReferenceRbmNetwork {
    num_visible: usize,
    num_hidden: usize,
    num_classes: usize,
    config: RbmNetworkConfig,
    /// Visible–hidden weights, `w[i][j]` connecting `v_i` to `h_j`.
    pub w: Vec<Vec<f64>>,
    /// Hidden–class weights, `u[j][k]` connecting `h_j` to `z_k`.
    pub u: Vec<Vec<f64>>,
    /// Visible biases `a_i`.
    pub a: Vec<f64>,
    /// Hidden biases `b_j`.
    pub b: Vec<f64>,
    /// Class biases `c_k`.
    pub c: Vec<f64>,
    w_vel: Vec<Vec<f64>>,
    u_vel: Vec<Vec<f64>>,
    class_counts: Vec<u64>,
    feature_min: Vec<f64>,
    feature_max: Vec<f64>,
    rng: StdRng,
}

impl ReferenceRbmNetwork {
    /// Creates an untrained network for the given schema.
    pub fn new(num_features: usize, num_classes: usize, config: RbmNetworkConfig) -> Self {
        assert!(num_features > 0);
        assert!(num_classes >= 2);
        assert!(config.hidden_fraction > 0.0);
        assert!(config.learning_rate > 0.0);
        assert!(config.gibbs_steps >= 1);
        assert!(config.class_balance_beta > 0.0 && config.class_balance_beta < 1.0);
        let num_hidden = crate::network::hidden_count(num_features, &config);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scale = 0.1;
        let w = (0..num_features)
            .map(|_| (0..num_hidden).map(|_| (rng.gen::<f64>() - 0.5) * scale).collect())
            .collect();
        let u = (0..num_hidden)
            .map(|_| (0..num_classes).map(|_| (rng.gen::<f64>() - 0.5) * scale).collect())
            .collect();
        ReferenceRbmNetwork {
            num_visible: num_features,
            num_hidden,
            num_classes,
            config,
            w,
            u,
            a: vec![0.0; num_features],
            b: vec![0.0; num_hidden],
            c: vec![0.0; num_classes],
            w_vel: vec![vec![0.0; num_hidden]; num_features],
            u_vel: vec![vec![0.0; num_classes]; num_hidden],
            class_counts: vec![0; num_classes],
            feature_min: vec![f64::INFINITY; num_features],
            feature_max: vec![f64::NEG_INFINITY; num_features],
            rng,
        }
    }

    /// Number of hidden units.
    pub fn num_hidden(&self) -> usize {
        self.num_hidden
    }

    /// Per-class instance counts accumulated during training.
    pub fn class_counts(&self) -> &[u64] {
        &self.class_counts
    }

    fn sigmoid(x: f64) -> f64 {
        1.0 / (1.0 + (-x).exp())
    }

    /// Min–max normalizes a feature vector into `[0, 1]` using the running
    /// per-feature ranges (features never observed to vary map to 0.5).
    pub fn normalize(&self, features: &[f64]) -> Vec<f64> {
        features
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let (lo, hi) = (self.feature_min[i], self.feature_max[i]);
                if !lo.is_finite() || !hi.is_finite() || hi - lo < 1e-12 {
                    0.5
                } else {
                    ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
                }
            })
            .collect()
    }

    fn observe_ranges(&mut self, instance: &Instance) {
        for (i, &x) in instance.features.iter().enumerate() {
            if x < self.feature_min[i] {
                self.feature_min[i] = x;
            }
            if x > self.feature_max[i] {
                self.feature_max[i] = x;
            }
        }
    }

    /// Hidden activation probabilities given visible values and a class
    /// one-hot/soft encoding (Eq. 10).
    pub fn hidden_probabilities(&self, v: &[f64], z: &[f64]) -> Vec<f64> {
        (0..self.num_hidden)
            .map(|j| {
                let mut act = self.b[j];
                for (i, &vi) in v.iter().enumerate() {
                    act += vi * self.w[i][j];
                }
                for (k, &zk) in z.iter().enumerate() {
                    act += zk * self.u[j][k];
                }
                Self::sigmoid(act)
            })
            .collect()
    }

    /// Visible reconstruction probabilities given hidden values (Eq. 11).
    pub fn visible_probabilities(&self, h: &[f64]) -> Vec<f64> {
        (0..self.num_visible)
            .map(|i| {
                let mut act = self.a[i];
                for (j, &hj) in h.iter().enumerate() {
                    act += hj * self.w[i][j];
                }
                Self::sigmoid(act)
            })
            .collect()
    }

    /// Class reconstruction probabilities (softmax, Eq. 12).
    pub fn class_probabilities(&self, h: &[f64]) -> Vec<f64> {
        let activations: Vec<f64> = (0..self.num_classes)
            .map(|k| {
                let mut act = self.c[k];
                for (j, &hj) in h.iter().enumerate() {
                    act += hj * self.u[j][k];
                }
                act
            })
            .collect();
        let max = activations.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = activations.iter().map(|&x| (x - max).exp()).collect();
        let total: f64 = exps.iter().sum();
        exps.iter().map(|e| e / total).collect()
    }

    fn sample_binary(&mut self, probabilities: &[f64]) -> Vec<f64> {
        probabilities.iter().map(|&p| if self.rng.gen::<f64>() < p { 1.0 } else { 0.0 }).collect()
    }

    /// Class-balanced loss weight of a class (Eq. 13).
    pub fn class_weight(&self, class: usize) -> f64 {
        let beta = self.config.class_balance_beta;
        let raw: Vec<f64> = self
            .class_counts
            .iter()
            .map(|&n| {
                if n == 0 {
                    (1.0 - beta) / (1.0 - beta.powi(1))
                } else {
                    (1.0 - beta) / (1.0 - beta.powi(n.min(i32::MAX as u64) as i32))
                }
            })
            .collect();
        let mean: f64 = raw.iter().sum::<f64>() / raw.len() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            raw[class] / mean
        }
    }

    /// Free-energy prediction (lowest-energy class wins).
    pub fn predict(&self, features: &[f64]) -> usize {
        let v = self.normalize(features);
        let visible_term: f64 = v.iter().zip(self.a.iter()).map(|(vi, ai)| vi * ai).sum();
        let mut best = (0usize, f64::NEG_INFINITY);
        for k in 0..self.num_classes {
            let mut neg_free_energy = visible_term + self.c[k];
            for j in 0..self.num_hidden {
                let mut act = self.b[j] + self.u[j][k];
                for (i, &vi) in v.iter().enumerate() {
                    act += vi * self.w[i][j];
                }
                neg_free_energy += if act > 30.0 { act } else { (1.0 + act.exp()).ln() };
            }
            if neg_free_energy > best.1 {
                best = (k, neg_free_energy);
            }
        }
        best.0
    }

    /// Reconstruction error of a single labeled instance (Eq. 22–26).
    pub fn reconstruction_error(&self, instance: &Instance) -> f64 {
        let v = self.normalize(&instance.features);
        let mut z = vec![0.0; self.num_classes];
        if instance.class < self.num_classes {
            z[instance.class] = 1.0;
        }
        let h = self.hidden_probabilities(&v, &z);
        let v_rec = self.visible_probabilities(&h);
        let z_rec = self.class_probabilities(&h);
        let mut sum = 0.0;
        for (x, xr) in v.iter().zip(v_rec.iter()) {
            sum += (x - xr) * (x - xr);
        }
        for (y, yr) in z.iter().zip(z_rec.iter()) {
            sum += (y - yr) * (y - yr);
        }
        sum.sqrt()
    }

    /// Average reconstruction error of each class over a mini-batch
    /// (Eq. 27). Classes absent from the batch yield `None`.
    pub fn batch_reconstruction_errors(&self, batch: &MiniBatch) -> Vec<Option<f64>> {
        let mut sums = vec![0.0; self.num_classes];
        let mut counts = vec![0usize; self.num_classes];
        for instance in &batch.instances {
            if instance.class >= self.num_classes {
                continue;
            }
            sums[instance.class] += self.reconstruction_error(instance);
            counts[instance.class] += 1;
        }
        sums.iter()
            .zip(counts.iter())
            .map(|(&s, &c)| if c == 0 { None } else { Some(s / c as f64) })
            .collect()
    }

    /// Trains on one mini-batch with per-instance CD-k (the seed hot loop).
    pub fn train_batch(&mut self, batch: &MiniBatch) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        for instance in &batch.instances {
            self.observe_ranges(instance);
            if instance.class < self.num_classes {
                self.class_counts[instance.class] += 1;
            }
        }

        let lr = self.config.learning_rate / batch.len() as f64;
        let momentum = self.config.momentum;
        let decay = self.config.weight_decay;

        let mut dw = vec![vec![0.0; self.num_hidden]; self.num_visible];
        let mut du = vec![vec![0.0; self.num_classes]; self.num_hidden];
        let mut da = vec![0.0; self.num_visible];
        let mut db = vec![0.0; self.num_hidden];
        let mut dc = vec![0.0; self.num_classes];
        let mut total_error = 0.0;

        for instance in &batch.instances {
            if instance.class >= self.num_classes {
                continue;
            }
            let weight = self.class_weight(instance.class);
            let v0 = self.normalize(&instance.features);
            let mut z0 = vec![0.0; self.num_classes];
            z0[instance.class] = 1.0;

            let h0_prob = self.hidden_probabilities(&v0, &z0);
            let mut h_sample = self.sample_binary(&h0_prob);

            let mut vk = v0.clone();
            let mut zk = z0.clone();
            let mut hk_prob = h0_prob.clone();
            for step in 0..self.config.gibbs_steps {
                vk = self.visible_probabilities(&h_sample);
                zk = self.class_probabilities(&h_sample);
                hk_prob = self.hidden_probabilities(&vk, &zk);
                if step + 1 < self.config.gibbs_steps {
                    h_sample = self.sample_binary(&hk_prob);
                } else {
                    h_sample = hk_prob.clone();
                }
            }

            for i in 0..self.num_visible {
                for j in 0..self.num_hidden {
                    dw[i][j] += weight * (v0[i] * h0_prob[j] - vk[i] * hk_prob[j]);
                }
                da[i] += weight * (v0[i] - vk[i]);
            }
            for j in 0..self.num_hidden {
                for k in 0..self.num_classes {
                    du[j][k] += weight * (h0_prob[j] * z0[k] - hk_prob[j] * zk[k]);
                }
                db[j] += weight * (h0_prob[j] - hk_prob[j]);
            }
            for k in 0..self.num_classes {
                dc[k] += weight * (z0[k] - zk[k]);
            }

            let mut err = 0.0;
            for (x, xr) in v0.iter().zip(vk.iter()) {
                err += (x - xr) * (x - xr);
            }
            for (y, yr) in z0.iter().zip(zk.iter()) {
                err += (y - yr) * (y - yr);
            }
            total_error += weight * err.sqrt();
        }

        for i in 0..self.num_visible {
            for (j, dw_ij) in dw[i].iter().enumerate() {
                self.w_vel[i][j] =
                    momentum * self.w_vel[i][j] + lr * (dw_ij - decay * self.w[i][j]);
                self.w[i][j] += self.w_vel[i][j];
            }
            self.a[i] += lr * da[i];
        }
        for j in 0..self.num_hidden {
            for (k, du_jk) in du[j].iter().enumerate() {
                self.u_vel[j][k] =
                    momentum * self.u_vel[j][k] + lr * (du_jk - decay * self.u[j][k]);
                self.u[j][k] += self.u_vel[j][k];
            }
            self.b[j] += lr * db[j];
        }
        for (c, dc_k) in self.c.iter_mut().zip(dc.iter()) {
            *c += lr * dc_k;
        }
        total_error / batch.len() as f64
    }
}
