"""Seeded sample plans shared by the verification sweeps.

Every randomized check draws from a `SamplePlan` so reruns with the same
seed touch exactly the same points, which is what makes CLI artifacts
byte-identical across runs.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class SamplePlan:
    seed: int = 0
    n_triples: int = 64
    n_p: int = 33
    n_v: int = 33

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed, salt))

    def triples(self, t_range: tuple[float, float], R: float) -> np.ndarray:
        """(n_triples, 3) rows of (t, x, y) with x, y in [-R, R]."""
        rng = self.rng(1)
        t = rng.uniform(t_range[0], t_range[1], self.n_triples)
        xy = rng.uniform(-R, R, (self.n_triples, 2))
        return np.column_stack([t, xy])

    def p_values(self, p_max: float) -> np.ndarray:
        return self.rng(2).uniform(-p_max, p_max, self.n_p)

    def unit_fractions(self) -> np.ndarray:
        """n_v points in (0, 1) used to sample effective-domain interiors."""
        return (np.arange(self.n_v) + 0.5) / self.n_v

