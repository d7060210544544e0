"""Closed-form channel-aware consensus weights and the law they solve.

When every worker's local posterior is a zero-mean Gaussian, the aggregated
sample sum_k W_k y_k is Gaussian with covariance sum_k W_k (P_k C_k + N0 I)
W_k^T.  The channel-aware weights are built so that this covariance equals
the product-posterior covariance (sum_k C_k^{-1})^{-1} exactly, for any
subposterior covariances, power scales, and noise level.  This script
evaluates both sides numerically and then shows the estimated-covariance
variant converging to the exact one as blocks accumulate.
"""

import numpy as np

from wcmc import aggregators, channel
from wcmc.harness.data import toeplitz_covariance
from wcmc.posteriors import GaussianSubposterior

rng = np.random.default_rng(1)

d, k = 4, 3
covs = [toeplitz_covariance(rho, d) for rho in (0.0, 0.4, 0.8)]
p_scales = [0.6, 1.0, 1.7]
n0 = 0.5

print("exact weights from known covariances (d=4, K=3, N0=0.5)")
w = aggregators.wgcmc_oma_weights_exact(covs, p_scales, n0)
lhs = sum(w[j] @ (p_scales[j] * covs[j] + n0 * np.eye(d)) @ w[j].T for j in range(k))
rhs = np.linalg.inv(sum(np.linalg.inv(c) for c in covs))
print(f"  output-covariance identity error: {np.abs(lhs - rhs).max():.2e}")

w_noma = aggregators.wgcmc_noma_weight_exact(covs[1], k, min(p_scales), n0)
lhs_noma = w_noma @ (k * min(p_scales) * covs[1] + n0 * np.eye(d)) @ w_noma.T
print(f"  superposition identity error:     {np.abs(lhs_noma - covs[1] / k).max():.2e}")

print("\nestimated weights from noisy received blocks, homogeneous workers")
cov0 = covs[1]
for s in (100, 1000, 10000):
    thetas = np.stack([GaussianSubposterior(cov0).sample(rng, size=s) for _ in range(k)], axis=1)
    enc = channel.noma_encoding([min(p_scales)] * k, d)
    ys = channel.transmit(thetas, [enc], n0, rng)
    ws = aggregators.gcmc_weights(ys, [min(p_scales)], k, n0)
    out = aggregators.apply_weights(ws, ys)
    target = cov0 / k
    gap = np.abs(out.T @ out / s - target).max() / np.abs(target).max()
    print(f"  S={s:>6}: aggregated-sample covariance off by {gap:6.1%}")
