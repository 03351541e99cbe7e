# Normalizing an equivariant connection to constant form: a recursively
# built series gauge kills every positive power but the couplings one shear
# makes constant, that shear folds the constant-term spectrum into the
# strip, and the dilation matrix comes out constant.

import numpy as np

from eqconn import (
    EquivariantConnection,
    PolyMat,
    Transversal,
    hom_basis,
    is_isomorphic,
    normalize,
)
from eqconn.category import NormalForm, theta_to_q
from eqconn.laurent import dilation_transform, gauge_transform

tau = 1.0 - 1.0j
theta = (np.sqrt(5.0) - 1.0) / 2.0
q = theta_to_q(theta)
strip = Transversal(tau)

# Start from a known constant pair and hide it behind a random gauge with
# unit constant term.
rng = np.random.default_rng(7)
a0 = np.diag([0.15 * tau, 0.65 * tau]) + 0.2 * np.triu(np.ones((2, 2)), 1)
b0 = 2.0 * np.eye(2) + 0.4 * a0  # a polynomial in a0, so the pair commutes
seed = NormalForm(a0, b0, strip, theta, tau)

p = PolyMat(2, {0: np.eye(2),
                1: 0.4 * rng.normal(size=(2, 2)),
                2: 0.3 * rng.normal(size=(2, 2))}, tau, q)
hidden_a = gauge_transform(PolyMat.constant(a0, tau, q), p, 40)
hidden_b = dilation_transform(PolyMat.constant(b0, tau, q), p, 40)
obj = EquivariantConnection(hidden_a, hidden_b, theta, tau)
print("scrambled connection supports powers", obj.A.powers()[:6], "...")

nf = normalize(obj, strip, order=16)
print("\nrecovered constant pair:")
print(np.round(nf.A0, 10))
print(np.round(nf.B0, 10))
print("gauge residual:", nf.diagnostics["gauge_residual"])
print("dilation residual:", nf.diagnostics["b_residual"])

# The recovered object is isomorphic to the seed: an invertible intertwiner
# exists and morphism spaces match dimension for dimension.
iso = is_isomorphic(seed, nf, seed=0)
print("\nisomorphic to the seed:", iso is not None)
print("dim hom(seed, recovered):", len(hom_basis(seed, nf)))
print("dim end(seed):           ", len(hom_basis(seed, seed)))
