"""Distributed control of a nonlocal phase-field system with an obstacle
constraint, approached through a quench-regularization path.

The forward model couples a chemical-potential equation with diffusion
to a pointwise order-parameter relaxation whose constraint term is
either the exact obstacle reaction or its logarithmic quench surrogate.
On top of that sit the exact discrete adjoint, a projected-gradient
optimizer, a continuation driver down the quench ladder, and a suite of
independent oracles that check every piece against a second route.
"""
