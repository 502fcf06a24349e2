"""The chat service and its traffic behaviour.

Section 5.1's key observation: JSON chat messages arrive over the
WebSocket **whether or not the chat UI is shown**, but with chat *on* the
app additionally downloads the profile picture of every chatting user
from Amazon S3 — and it does **not cache them**, so active chats inflate
the downstream traffic from ~500 kbps to several Mbps.  This module
generates the message process and the resulting avatar-fetch workload.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro import obs
from repro.protocols.websocket import chat_message_json, text_frame_size
from repro.util.sampling import bounded_lognormal

#: Fraction of chatting users that have a profile picture set.
AVATAR_PROBABILITY = 0.75

#: Profile pictures are phone-camera selfies served at original size;
#: the paper blames their "format and resolution" for the traffic.
AVATAR_BYTES_MEDIAN = 55_000
AVATAR_BYTES_SIGMA = 0.7
AVATAR_BYTES_MIN = 4_000
AVATAR_BYTES_MAX = 400_000

#: Message arrival model: chat activity grows with audience size but far
#: sublinearly — tiny rooms are chatty per capita (the broadcaster
#: responds to everyone), and Periscope stops accepting new senders once
#: the room is "full", capping the rate.
MESSAGES_PER_SQRT_VIEWER_PER_S = 0.45
MAX_MESSAGES_PER_S = 6.0

#: Messages of recent history the app renders (and fetches avatars for)
#: right when a viewer joins.
JOIN_HISTORY_MESSAGES = 12

_BODIES = (
    "hello from {}", "wow", "nice stream!", "where is this?", "lol",
    "can you say hi to {}?", "amazing", "first time here", "greetings",
    "what's happening?", "cool", "so beautiful", "hahaha", "hi everyone",
)


@dataclass(frozen=True)
class ChatMessage:
    """One chat message as delivered to viewers."""

    timestamp: float
    username: str
    body: str
    has_avatar: bool
    avatar_url: str
    avatar_bytes: int

    def json_payload(self) -> dict:
        return chat_message_json(
            self.username, self.body, self.has_avatar, self.avatar_url
        )

    def frame_bytes(self) -> int:
        """Wire size of the WebSocket frame carrying this message."""
        return text_frame_size(json.dumps(self.json_payload(), separators=(",", ":")))


class ChatFeed:
    """The message stream of one broadcast.

    The number of *distinct* chatting users is bounded (chat fills up),
    so with chat on, avatars repeat — and because the app does not cache
    them, every repetition is a fresh S3 download.
    """

    def __init__(
        self,
        rng: random.Random,
        viewers: float,
        chatter_pool_size: Optional[int] = None,
    ) -> None:
        if viewers < 0:
            raise ValueError("viewers must be non-negative")
        self._rng = rng
        self.viewers = viewers
        pool = chatter_pool_size or max(1, min(int(viewers * 0.3) + 1, 60))
        self._chatters: List[tuple] = []
        for index in range(pool):
            username = f"viewer{rng.randrange(10**7):07d}"
            has_avatar = rng.random() < AVATAR_PROBABILITY
            avatar_bytes = int(
                bounded_lognormal(
                    rng,
                    median=AVATAR_BYTES_MEDIAN,
                    sigma=AVATAR_BYTES_SIGMA,
                    low=AVATAR_BYTES_MIN,
                    high=AVATAR_BYTES_MAX,
                )
            )
            self._chatters.append((username, has_avatar, avatar_bytes))

    @property
    def message_rate_per_s(self) -> float:
        """Mean chat messages per second for this audience size."""
        if self.viewers <= 0:
            return 0.0
        return min(
            MESSAGES_PER_SQRT_VIEWER_PER_S * math.sqrt(self.viewers),
            MAX_MESSAGES_PER_S,
        )

    def messages(self, duration_s: float, start: float = 0.0) -> Iterator[ChatMessage]:
        """Yield the Poisson message stream over ``[start, start+duration)``."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        rate = self.message_rate_per_s
        if rate <= 0:
            return
        telemetry = obs.active()
        metrics_on = telemetry.enabled and telemetry.metrics_on
        t = start
        while True:
            t += self._rng.expovariate(rate)
            if t >= start + duration_s:
                return
            username, has_avatar, avatar_bytes = self._rng.choice(self._chatters)
            body = self._rng.choice(_BODIES).format(username)
            if metrics_on:
                telemetry.metrics.counter(
                    "chat_messages_total", "Chat messages generated",
                ).inc()
            yield ChatMessage(
                timestamp=t,
                username=username,
                body=body,
                has_avatar=has_avatar,
                avatar_url=f"https://s3.amazonaws.com/profile-images/{username}.jpg",
                avatar_bytes=avatar_bytes,
            )

    def history(self) -> List["ChatMessage"]:
        """The last :data:`JOIN_HISTORY_MESSAGES` messages, delivered as
        a burst at join time.

        The app renders the tail of the conversation immediately, which
        with the chat pane on means an immediate burst of avatar
        downloads competing with the initial video buffering.
        """
        rate = self.message_rate_per_s
        window = JOIN_HISTORY_MESSAGES / rate if rate > 0 else 0.0
        if window <= 0:
            return []
        backlog = list(self.messages(window, start=-window))
        burst = backlog[-JOIN_HISTORY_MESSAGES:]
        telemetry = obs.active()
        if telemetry.enabled and telemetry.metrics_on:
            telemetry.metrics.histogram(
                "chat_join_fanout_messages",
                "History messages delivered as the join burst",
                buckets=(0, 1, 2, 4, 8, 12, 16, 24, 32, 48, 64),
            ).observe(float(len(burst)))
            telemetry.metrics.counter(
                "chat_join_avatar_fanout_total",
                "Avatar downloads triggered by join bursts",
            ).inc(sum(1 for m in burst if m.has_avatar))
        return burst
