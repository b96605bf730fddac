"""The paper's contribution: CCFIT and its two constituent mechanisms.

* :mod:`repro.core.params` — every congestion-control parameter, with
  the §III-E tuning rules enforced.
* :mod:`repro.core.cam` — content-addressable-memory lines tracking
  congestion trees at input ports, output ports and input adapters.
* :mod:`repro.core.isolation` — FBICM-style congested-flow isolation
  (detection, CFQ allocation, post-processing, upstream propagation,
  Stop/Go, deallocation).
* :mod:`repro.core.throttling` — InfiniBand-style injection throttling
  (FECN marking, BECN reaction, CCT/CCTI/IRD source state).
* :mod:`repro.core.ccfit` — the combination, plus presets for every
  evaluated scheme (1Q, VOQsw, VOQnet, FBICM, ITh, CCFIT).

The names below are imported on first use: a module that needs only
:mod:`repro.core.params` (the network layer does) does not load the
schemes, which depend back on the network layer.
"""

import importlib

#: name -> the module of this package that defines it.
_EXPORTS = {
    "CCParams": "params",
    "linear_cct": "params",
    "exponential_cct": "params",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
