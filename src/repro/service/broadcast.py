"""Broadcast lifecycle: identity, popularity, duration, encoder traits.

Population statistics are calibrated to Section 4 of the paper:

* durations are heavy-tailed — most broadcasts last 1-10 minutes, roughly
  half under 4 minutes, with a tail beyond a day;
* over 10% of broadcasts never have a viewer; they are much shorter on
  average (≈2 min vs ≈13 min) and >80% of them are not available for
  replay;
* over 90% of broadcasts average fewer than 20 viewers, but some attract
  thousands — and because the app's Teleport button is popularity-biased,
  nearly half of randomly "teleported" sessions land on a >100-viewer
  (HLS) broadcast even though such broadcasts are rare.
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass

from repro.media.content import ContentProfile, pick_profile
from repro.media.encoder import GopPattern
from repro.service.geo import GeoPoint, PopulationCenter
from repro.util.sampling import bounded_lognormal, bounded_pareto

_ID_ALPHABET = string.ascii_letters + string.digits
#: Periscope broadcast ids are 13 characters (Table 1).
BROADCAST_ID_LENGTH = 13

#: Fraction of broadcasts that never attract a single viewer (paper: >10%).
ZERO_VIEWER_FRACTION = 0.11
#: Replay availability for zero-viewer broadcasts (paper: >80% unavailable).
ZERO_VIEWER_REPLAY_PROB = 0.17
#: Replay availability for viewed broadcasts (not reported; plausible).
VIEWED_REPLAY_PROB = 0.62

#: Shape parameters of the audience curve: quick ramp to a peak early
#: in the broadcast, then slow exponential decay.
AUDIENCE_RAMP_FRACTION = 0.15
AUDIENCE_DECAY_RATE = 1.2
#: Normalization of :meth:`Broadcast.viewers_at`: the integral of the
#: curve's shape over progress ``[0, 1]``.
_AUDIENCE_CURVE_INTEGRAL = AUDIENCE_RAMP_FRACTION / 2.0 + (
    1.0 - AUDIENCE_RAMP_FRACTION
) / AUDIENCE_DECAY_RATE * (1.0 - math.exp(-AUDIENCE_DECAY_RATE))


#: ``bytes.translate`` table from the top byte of a 32-bit generator
#: word to the character ``rng.choice(_ID_ALPHABET)`` picks with that
#: word: the byte's top 6 bits index the alphabet.
_ID_CHAR_BY_TOP_BYTE = bytes(
    ord(_ID_ALPHABET[b >> 2]) if b >> 2 < len(_ID_ALPHABET) else 0
    for b in range(256)
)
#: Top bytes whose 6 bits index past the 62-character alphabet:
#: ``rng.choice`` rejects such a word and draws another.
_ID_REJECTED_TOP_BYTES = bytes(range(4 * len(_ID_ALPHABET), 256))


def make_broadcast_id(rng: random.Random) -> str:
    """A 13-character opaque broadcast id.

    Takes the same words, in the same order, as 13
    ``rng.choice(_ID_ALPHABET)`` calls: each call keeps the top 6 bits
    of one 32-bit word and draws again while they index past the
    alphabet.  One ``getrandbits`` call draws the first 13 words at once
    (the first word least significant); only the characters whose word
    was rejected draw more.
    """
    words = rng.getrandbits(32 * BROADCAST_ID_LENGTH).to_bytes(
        4 * BROADCAST_ID_LENGTH, "little"
    )
    broadcast_id = words[3::4].translate(
        _ID_CHAR_BY_TOP_BYTE, _ID_REJECTED_TOP_BYTES
    ).decode("ascii")
    while len(broadcast_id) < BROADCAST_ID_LENGTH:
        broadcast_id += rng.choice(_ID_ALPHABET)
    return broadcast_id


#: A small fraction of viewed broadcasts are "marathons" (surveillance
#: cams, event coverage) running for hours to days — the paper's
#: distribution tail.
MARATHON_PROBABILITY = 0.002


def sample_duration_s(rng: random.Random, has_viewers: bool) -> float:
    """Broadcast duration, heavy tailed; viewed broadcasts run longer."""
    if has_viewers:
        if rng.random() < MARATHON_PROBABILITY:
            return bounded_lognormal(
                rng, median=6 * 3600.0, sigma=1.0, low=3600.0, high=2 * 86400.0
            )
        return bounded_lognormal(rng, median=4.2 * 60, sigma=1.3, low=20.0, high=2 * 86400.0)
    return bounded_lognormal(rng, median=1.5 * 60, sigma=1.0, low=10.0, high=12 * 3600.0)


def sample_mean_viewers(rng: random.Random) -> float:
    """Average concurrent viewers over the broadcast's life (0 allowed)."""
    if rng.random() < ZERO_VIEWER_FRACTION:
        return 0.0
    return bounded_pareto(rng, alpha=1.0, scale=0.8, high=20_000.0)


def sample_target_bitrate_bps(rng: random.Random, gop: GopPattern) -> float:
    """Encoder target bitrate.

    The bulk sits at 200-400 kbps; intra-only encoders (old hardware with
    broken rate control) run far hotter — they are the paper's
    explanation for the higher RTMP bitrate maximum in Fig. 6(a).
    """
    if gop.kind == "I":
        return bounded_lognormal(rng, median=900_000.0, sigma=0.25,
                                 low=500_000.0, high=1_400_000.0)
    return bounded_lognormal(rng, median=300_000.0, sigma=0.28,
                             low=120_000.0, high=900_000.0)


@dataclass
class Broadcast:
    """One live broadcast and everything derived observers can see."""

    broadcast_id: str
    username: str
    start_time: float  # UTC sim seconds
    duration_s: float
    location: GeoPoint
    center: PopulationCenter
    content_profile: ContentProfile
    gop: GopPattern
    target_bitrate_bps: float
    audio_bitrate_bps: float
    mean_viewers: float
    available_for_replay: bool
    is_private: bool = False
    #: False when the broadcaster withheld location (map queries skip it).
    description_has_location: bool = True
    #: Seed material for the broadcast's encoder/chat streams.
    seed: int = 0

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration_s

    def is_live_at(self, t: float) -> bool:
        """``t`` lies in ``[start_time, end_time)``, the broadcast's live
        interval."""
        return self.start_time <= t < self.start_time + self.duration_s

    @property
    def has_viewers(self) -> bool:
        return self.mean_viewers > 0

    # ----------------------------------------------------------- viewer curve

    def viewers_at(self, t: float) -> float:
        """Instantaneous concurrent viewers at UTC time ``t``.

        The curve integrates (approximately) to ``mean_viewers`` over the
        broadcast's life.  Zero outside ``[start_time, end_time)``, the
        interval :meth:`is_live_at` calls live.
        """
        if (
            not self.start_time <= t < self.start_time + self.duration_s
            or self.mean_viewers <= 0
        ):
            return 0.0
        x = (t - self.start_time) / self.duration_s  # progress in [0, 1)
        ramp = AUDIENCE_RAMP_FRACTION
        if x < ramp:
            shape = x / ramp
        else:
            shape = math.exp(-AUDIENCE_DECAY_RATE * (x - ramp) / (1.0 - ramp))
        return self.mean_viewers * shape / _AUDIENCE_CURVE_INTEGRAL

    def description(self, t: float) -> dict:
        """The JSON description /getBroadcasts returns for this id."""
        return {
            "id": self.broadcast_id,
            "username": self.username,
            "state": "RUNNING" if self.is_live_at(t) else "ENDED",
            "start": self.start_time,
            "ip_lat": round(self.location.lat, 4),
            "ip_lng": round(self.location.lon, 4),
            "n_watching": int(round(self.viewers_at(t))),
            "available_for_replay": self.available_for_replay,
            "is_locked": self.is_private,
        }


def sample_broadcast(
    rng: random.Random,
    start_time: float,
    location: GeoPoint,
    center: PopulationCenter,
) -> Broadcast:
    """Draw a complete broadcast with correlated traits."""
    mean_viewers = sample_mean_viewers(rng)
    gop = GopPattern.sample(rng)
    if gop.kind == "I":
        # Intra-only streams come from legacy hardware whose owners also
        # draw small audiences — so their hot bitrates surface on RTMP,
        # not HLS (the Fig. 6(a) max-bitrate asymmetry).
        mean_viewers = min(mean_viewers, 40.0)
    has_viewers = mean_viewers > 0
    replay_prob = VIEWED_REPLAY_PROB if has_viewers else ZERO_VIEWER_REPLAY_PROB
    return Broadcast(
        broadcast_id=make_broadcast_id(rng),
        username=f"user{rng.randrange(10**8):08d}",
        start_time=start_time,
        duration_s=sample_duration_s(rng, has_viewers),
        location=location,
        center=center,
        content_profile=pick_profile(rng),
        gop=gop,
        target_bitrate_bps=sample_target_bitrate_bps(rng, gop),
        audio_bitrate_bps=rng.choice((32_000.0, 64_000.0)),
        mean_viewers=mean_viewers,
        available_for_replay=rng.random() < replay_prob,
        is_private=False,
        seed=rng.getrandbits(48),
    )
