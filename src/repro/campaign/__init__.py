"""Crash-safe study campaigns: checkpoint/resume with content-addressed
memoization.

A campaign decomposes a study sweep into hermetic ``(seed,
config-cell)`` units, keys each by a canonical hash of its fully
resolved description (:mod:`~repro.campaign.hashing`), and runs the
grid against an on-disk store (:mod:`~repro.campaign.store`) whose
journal doubles as the checkpoint.  Kill the runner at any instant —
power cut, SIGKILL, Ctrl-C — and rerunning the same command resumes
where the journal left off, recomputing only unjournaled cells; because
cells are deterministic, the final artifacts are byte-identical to a
cold uninterrupted run (the kill/resume suite enforces this).

Layering: ``campaign`` sits above ``core`` and ``world`` in the lint
DAG and is deliberately **not** a hermetic package — its store is the
sanctioned filesystem surface (see D105 in
:mod:`repro.lint.rules_determinism`).  Simulation code never touches
disk; campaign code never touches simulation state except through
:func:`~repro.campaign.cells.execute_cell`.

CLI: ``repro-campaign run|status|gc --campaign DIR``
(:mod:`repro.campaign.__main__`).
"""

from repro.campaign.hashing import (
    SCHEMA_VERSION,
    UnhashableValueError,
    blob_hash,
    canonical_bytes,
    content_hash,
)
from repro.campaign.runner import (
    CampaignRunner,
    CampaignStatus,
    CampaignSummary,
)
from repro.campaign.spec import (
    POPULATION,
    SWEEP,
    CampaignSpec,
    CellSpec,
    cell_key,
    plan_cells,
    resolve_config,
)
from repro.campaign.store import (
    CampaignStore,
    CorruptBlobError,
    JournalScan,
    StoreError,
    StoreLockedError,
)

__all__ = [
    "SCHEMA_VERSION", "UnhashableValueError", "blob_hash",
    "canonical_bytes", "content_hash",
    "CampaignRunner", "CampaignStatus", "CampaignSummary",
    "POPULATION", "SWEEP", "CampaignSpec", "CellSpec", "cell_key",
    "plan_cells", "resolve_config",
    "CampaignStore", "CorruptBlobError", "JournalScan",
    "StoreError", "StoreLockedError",
]
