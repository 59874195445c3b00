"""Content-addressed result store for campaign memoization.

See :mod:`repro.store.fingerprint` for how solves are keyed and
:mod:`repro.store.result_store` for the multi-process-safe store.
"""

from repro.store.fingerprint import (
    EXECUTION_ONLY_OPTION_FIELDS,
    FINGERPRINT_SCHEMA,
    SOLVE_OPTION_FIELDS,
    campaign_fingerprint,
    canonical,
    circuit_fingerprint,
    options_fingerprint,
    oracles_fingerprint,
    result_key,
)
from repro.store.result_store import STORE_SCHEMA, ResultStore

__all__ = [
    "EXECUTION_ONLY_OPTION_FIELDS",
    "FINGERPRINT_SCHEMA",
    "SOLVE_OPTION_FIELDS",
    "STORE_SCHEMA",
    "ResultStore",
    "campaign_fingerprint",
    "canonical",
    "circuit_fingerprint",
    "options_fingerprint",
    "oracles_fingerprint",
    "result_key",
]
