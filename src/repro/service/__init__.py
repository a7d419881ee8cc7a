"""repro.service — the concurrent S-OLAP query service.

The serving layer above the single-threaded engine of Figure 6: admission
control, per-query deadlines with cooperative cancellation, sharded
scatter-gather execution, server-side sessions with LRU memory
management, and lightweight metrics.  See ``docs/service.md``.
"""

from repro.service.config import EXECUTOR_BACKENDS, ServiceConfig
from repro.service.deadline import Deadline
from repro.service.metrics import ServiceMetrics
from repro.service.parallel import (
    ExecutorBackend,
    ProcessExecutorBackend,
    SerialExecutorBackend,
    create_backend,
)
from repro.service.service import SESSION_OPERATIONS, QueryService
from repro.service.sessions import SessionEntry, SessionManager

__all__ = [
    "Deadline",
    "EXECUTOR_BACKENDS",
    "ExecutorBackend",
    "ProcessExecutorBackend",
    "QueryService",
    "SESSION_OPERATIONS",
    "SerialExecutorBackend",
    "ServiceConfig",
    "ServiceMetrics",
    "SessionEntry",
    "SessionManager",
    "create_backend",
]
