"""The energy-measurement game: sample a term, measure it, check the sign.

The acceptance probability is exactly 1/2 + <H> / (2 ||H||_P1).  A seeded
million-shot simulation reproduces it to within statistical error, and the
same seed draws the same shots bit for bit.
"""

import numpy as np

from pauliham import (
    Hamiltonian,
    accept_prob_exact,
    extremal_eigs,
    hadamard_power,
    shot_chunks,
    simulate,
)

h = hadamard_power(1)
top = extremal_eigs(h).eigvec_max
exact = accept_prob_exact(h, top)
print(f"exact acceptance probability on the top eigenvector: {exact:.9f}")

for seed in (1, 2, 3):
    t = simulate(h, top, shots=1_000_000, seed=seed)
    sigma = (t.accept_frequency - t.exact_probability) / t.std_error if t.std_error else 0.0
    print(
        f"  seed={seed}: frequency = {t.accept_frequency:.6f}  "
        f"(deviation {sigma:+.2f} standard errors)"
    )

print()
print("Same seed, same shots:")


def shots(seed):
    """Sampled terms, outcome bits and verdicts of 1000 seeded shots."""
    _, _, chunks = shot_chunks(h, top, 1000, seed)
    return [np.concatenate(column) for column in zip(*chunks)]


a, b = shots(7), shots(7)
print(f"  shots identical: {all(np.array_equal(x, y) for x, y in zip(a, b))}")

print()
print("A mixed-sign instance: H = X - Z measured on |0>.")
mixed = Hamiltonian.from_labels({"X": 1.0, "Z": -1.0})
from pauliham import StateVector

zero = StateVector.basis(1, 0)
print(f"  exact = {accept_prob_exact(mixed, zero):.4f} (energy -1, 1-norm 2)")
t = simulate(mixed, zero, shots=200_000, seed=11)
print(f"  simulated = {t.accept_frequency:.4f}")
