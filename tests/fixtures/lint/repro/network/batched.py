"""R6 (numpy flavor): temporary array allocated in a # repro-hot lane.

A vectorized hot lane must write every ufunc result into a
preallocated scratch buffer (``out=``); an expression like ``a * b``
(or an explicit ``np.multiply`` without ``out=``) materializes a hidden
temporary per call.
"""

import numpy as np


class BoundaryLane:
    def __init__(self, members, channels):
        self.weight = np.ones((members, 1))
        self.pred = np.zeros((members, channels))

    def advance(self, raw):  # repro-hot
        self.pred += np.multiply(self.weight, raw)
        return self.pred
