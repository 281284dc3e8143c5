"""Bias-corrected exponential moving average of global models.

The tracker maintains a running ensemble over every global model produced so
far and exposes the bias-corrected average as the constraint target for the
next round of local training. With momentum 0 it degenerates to "last global
model", which is what the plain penalty algorithms use.
"""

import numpy as np


class TargetTracker:
    def __init__(self, beta):
        self.beta = beta  # in [0, 1), as FedConfig checks
        self.round = 0
        self._ensemble = None  # float64 accumulator

    def update(self, global_params):
        """Fold in the newest global model; returns the corrected target."""
        g = np.asarray(global_params)
        if self._ensemble is None:
            self._ensemble = np.zeros(g.shape, dtype=np.float64)
        self.round += 1
        self._ensemble = (1.0 - self.beta) * g.astype(np.float64) + self.beta * self._ensemble
        corrected = self._ensemble / (1.0 - self.beta ** self.round)
        return corrected.astype(g.dtype)

