"""Time one solver set-up in a fresh interpreter and print the seconds.

Set-up is the package import plus ``VsaConfig``, ``SspEncoder`` and
``build_palette``. The host speed probe (``speed.py``) is timed before and
after it. Usage: ``python3 setup_probe.py DIMENSION VSA_SEED``; prints
``{"seconds": ..., "probe_before": ..., "probe_after": ...}``.
"""
import json
import sys
from pathlib import Path
from time import perf_counter

import speed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
dimension, vsa_seed = int(sys.argv[1]), int(sys.argv[2])

probe_before = speed.probe_seconds()
start = perf_counter()
from hologrid import SspEncoder, VsaConfig, build_palette  # noqa: E402

config = VsaConfig(dimension=dimension, seed=vsa_seed)
SspEncoder(config)
build_palette(config)
seconds = perf_counter() - start
print(json.dumps({"seconds": seconds, "probe_before": probe_before, "probe_after": speed.probe_seconds()}))
