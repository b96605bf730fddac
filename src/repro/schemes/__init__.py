"""Bundled congestion-control schemes beyond the paper's evaluated set.

Every module in this package builds its scheme from the public policy
API (:mod:`repro.core.scheme`, :mod:`repro.core.ccfit`) and registers
it in :data:`repro.core.ccfit.SCHEMES` at import time — no
device-layer code is touched.  :mod:`repro.core.ccfit` imports this
package after registering the paper presets, so the schemes are
discoverable everywhere the presets are, in the same order whichever
module a process imports first: the CLI, the sweep engine, the
experiment registry, and the cost table.  They double as the worked
example for ``docs/schemes.md``.
"""

from repro.schemes.rcm import RCM, QueueDepthMarking, RcmGate
from repro.schemes.pfc import PFC, PFC_RCM, PfcQueueScheme

__all__ = ["RCM", "QueueDepthMarking", "RcmGate", "PFC", "PFC_RCM", "PfcQueueScheme"]
