"""Reference definitions that several test modules compare live code to.

The program itself never needs these: the map scan and the live-set
filters inline their own interval and rectangle tests.  Each oracle here
states the rule plainly so property tests can check the inlined forms.
"""

import enum


class BroadcastState(enum.Enum):
    """Where a broadcast is in its lifecycle at a given instant."""

    SCHEDULED = "scheduled"
    LIVE = "live"
    ENDED = "ended"


def state_at(broadcast, t):
    """The broadcast's state at ``t``: live on ``[start_time, end_time)``."""
    if t < broadcast.start_time:
        return BroadcastState.SCHEDULED
    if t < broadcast.end_time:
        return BroadcastState.LIVE
    return BroadcastState.ENDED


def contains(rect, point):
    """``point`` lies in the map rectangle ``rect``, edges included."""
    return rect.south <= point.lat <= rect.north and rect.west <= point.lon <= rect.east


def area_deg2(rect):
    """Area of ``rect`` in square degrees."""
    return (rect.north - rect.south) * (rect.east - rect.west)
