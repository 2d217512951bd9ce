"""Cycle-engine selection after the vector batch engine's removal.

The structure-of-arrays ``engine="vector"`` is gone; ``Network`` accepts
only the scalar engines and rejects every other name, ``"vector"``
included, with a clear error rather than a silent fallback.
"""

import pytest

from repro import Design, Network, NetworkConfig

CONFIG = NetworkConfig(width=4, height=4)


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown cycle engine"):
        Network(CONFIG, Design.BACKPRESSURELESS, seed=1, engine="simd")
    with pytest.raises(ValueError, match="unknown cycle engine"):
        Network(CONFIG, Design.BACKPRESSURELESS, seed=1, engine="vector")
