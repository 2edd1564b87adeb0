"""repro.pushexec -- the push-based fused execution backend.

The third engine, next to the pull-based
:class:`~repro.baseline.engine.IteratorEngine` and the packet-based
:class:`~repro.engine.qpipe.QPipeEngine`.  It is the iterator engine's
operator library and query driver under a different schedule of Python
frames: :func:`compile_plan` fuses every run of adjacent streaming
operators into one chain operator, so a batch moves between pipeline
breakers in a single coroutine frame instead of one nested ``yield
from`` per operator.

The backend's load-bearing property is *virtual-cost equivalence*: a
compiled tree issues the exact storage-manager calls and CPU charges, in
the exact order, that the iterator tree issues for the same plan -- by
construction, since both run the same operator bodies (see
:mod:`repro.pushexec.compiler`).  Every figure value the iterator engine
produces is therefore reproduced bit-for-bit; only the host wall-clock
spent simulating it differs.
"""

from repro.pushexec.engine import PushEngine
from repro.pushexec.compiler import compile_plan

__all__ = ["PushEngine", "compile_plan"]
