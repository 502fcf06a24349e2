"""``repro-campaign`` — run, inspect, and garbage-collect campaigns.

::

    repro-campaign run    --campaign DIR [grid flags] [--workers N]
    repro-campaign status --campaign DIR
    repro-campaign gc     --campaign DIR

``run`` is resumable by construction: rerun the identical command after
a crash (or Ctrl-C) and journaled cells are skipped.  ``status`` never
locks the directory, so it is safe to point at a live run.  ``gc``
sweeps temp orphans and blobs no journal record references.

The ``--kill-after-appends N`` flag is the crash-test hook: the process
SIGKILLs itself immediately after the N-th fsync'd journal append —
a real, unhandled kill at a byte-exact journal offset, which is what
the kill/resume suite and the CI smoke job drive.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import List, Optional, Sequence

from repro.campaign.runner import (
    SPEC_NAME,
    CampaignRunner,
    CampaignStatus,
)
from repro.campaign.spec import POPULATION, SWEEP, CampaignSpec
from repro.campaign.store import CampaignStore, StoreLockedError
from repro.util.tables import render_table


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--population", action="store_true",
                        help="population-world cells (one per seed at "
                             "--viewers) instead of bandwidth-sweep cells")
    parser.add_argument("--seeds", type=_int_list, default=[2016],
                        help="comma-separated study seeds (default: 2016)")
    parser.add_argument("--limits", type=_float_list,
                        default=[0.5, 2.0, 100.0],
                        help="comma-separated bandwidth limits in Mbps for "
                             "sweep cells (default: 0.5,2,100)")
    parser.add_argument("--sessions", type=int, default=4,
                        help="sessions per sweep cell (default: 4)")
    parser.add_argument("--viewers", type=int, default=100_000,
                        help="concurrent viewers per population cell")
    parser.add_argument("--sample-budget", type=int, default=16,
                        help="full-fidelity anchors per population cell")
    parser.add_argument("--watch", type=float, default=60.0,
                        help="per-session watch duration in seconds")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="study scale factor (default: 0.05)")
    parser.add_argument("--faults", default="",
                        help="fault plan in the repro-faults grammar")
    parser.add_argument("--explain", action="store_true",
                        help="capture cause attribution per cell")
    parser.add_argument("--health", action="store_true",
                        help="capture invariant monitors per cell")


def _spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    return CampaignSpec(
        kind=POPULATION if args.population else SWEEP,
        seeds=tuple(args.seeds),
        limits_mbps=tuple(args.limits),
        sessions_per_cell=args.sessions,
        viewers=args.viewers,
        sample_budget=args.sample_budget,
        watch_seconds=args.watch,
        scale=args.scale,
        faults=args.faults,
        causes_enabled=args.explain,
        health_enabled=args.health,
    )


def _stored_spec(store: CampaignStore) -> Optional[CampaignSpec]:
    raw = store.read_artifact(SPEC_NAME)
    if raw is None:
        return None
    return CampaignSpec.from_json(raw.decode("utf-8"))


def _install_kill_hook(store: CampaignStore, after_appends: int) -> None:
    """SIGKILL this process after the N-th fsync'd journal append."""
    remaining = [after_appends]

    def _post_append(record: dict) -> None:
        remaining[0] -= 1
        if remaining[0] <= 0:
            os.kill(os.getpid(), signal.SIGKILL)

    store.post_append = _post_append


def _print_status(status: CampaignStatus) -> None:
    print(f"planned cells:   {status.planned}")
    print(f"completed:       {status.memoized}")
    print(f"pending:         {status.pending}")
    if status.extra_journal:
        print(f"extra journaled: {status.extra_journal} "
              f"(cells from other specs; blobs stay live)")
    if status.journal_damaged:
        print(f"damaged journal records: {status.journal_damaged}")
    if status.journal_torn:
        print("journal tail:    torn (will be truncated on next run)")
    print(f"complete:        {'yes' if status.complete else 'no'}")
    if status.cells:
        rows = [[label, state, key[:12]]
                for label, key, state in status.cells]
        print(render_table(["cell", "state", "key"], rows))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Crash-safe, memoized study campaigns.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run (or resume) the campaign grid")
    run_parser.add_argument("--campaign", required=True, metavar="DIR",
                            help="campaign directory (created if missing)")
    _add_grid_flags(run_parser)
    run_parser.add_argument("--workers", type=int, default=1,
                            help="process-pool width across cells "
                                 "(default: 1, serial)")
    run_parser.add_argument("--kill-after-appends", type=int, default=None,
                            metavar="N",
                            help="crash-test hook: SIGKILL self after the "
                                 "N-th journal append")

    status_parser = subparsers.add_parser(
        "status", help="survey a campaign directory (read-only)")
    status_parser.add_argument("--campaign", required=True, metavar="DIR")
    _add_grid_flags(status_parser)

    gc_parser = subparsers.add_parser(
        "gc", help="sweep temp orphans and unreferenced blobs")
    gc_parser.add_argument("--campaign", required=True, metavar="DIR")

    args = parser.parse_args(argv)
    store = CampaignStore(args.campaign)

    if args.command == "gc":
        try:
            with store:
                blobs, tmps = store.gc()
        except StoreLockedError as error:
            print(error, file=sys.stderr)
            return 2
        print(f"removed {blobs} unreferenced blob(s), {tmps} temp orphan(s)")
        return 0

    if args.command == "status":
        # Prefer the spec the directory was last run with; fall back to
        # the grid flags for a never-run directory.
        spec = _stored_spec(store) or _spec_from_args(args)
        _print_status(CampaignRunner(store, spec).status())
        return 0

    # run
    spec = _spec_from_args(args)
    if args.kill_after_appends is not None:
        _install_kill_hook(store, args.kill_after_appends)
    runner = CampaignRunner(store, spec, workers=args.workers)
    try:
        summary = runner.run()
    except StoreLockedError as error:
        print(error, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("\ninterrupted — journaled cells are checkpointed; rerun the "
              "same command to resume", file=sys.stderr)
        return 130
    print(f"campaign complete: {summary.planned} cell(s) "
          f"({summary.memoized} memoized, {summary.executed} executed, "
          f"{summary.corrupt_recomputed} recomputed after corruption)")
    if summary.journal_torn:
        print("note: a torn journal tail was truncated on resume")
    for name in sorted(summary.artifacts):
        print(f"  {name}: {summary.artifacts[name]}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # stdout piped into head/grep and closed early
        sys.exit(0)
