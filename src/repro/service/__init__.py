"""Campaign-as-a-service: async job queue over the campaign engine.

See :mod:`repro.service.service` for the service and wire protocol,
:mod:`repro.service.jobs` for job specifications, and docs/service.md
for the full lifecycle and cache semantics.
"""

from .jobs import DEFAULT_KINDS, JobSpec, build_campaign_job
from .service import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    CampaignService,
    Job,
    ServiceError,
    submit_and_stream,
)

__all__ = [
    "CampaignService",
    "DEFAULT_KINDS",
    "DONE",
    "FAILED",
    "Job",
    "JobSpec",
    "QUEUED",
    "RUNNING",
    "ServiceError",
    "build_campaign_job",
    "submit_and_stream",
]
