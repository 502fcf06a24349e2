"""Bidirectional streams: a pair of connections, one per direction.

Request/response protocols (HTTP, the Periscope API, WebSockets) need
both directions to carry data.  A :class:`DuplexStream` owns two
:class:`~repro.netsim.connection.Connection` objects over the same chain
of hosts and exposes symmetric endpoints.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.netsim.connection import Connection, Message
from repro.netsim.events import EventLoop
from repro.netsim.topology import Network

MessageHandler = Callable[[Message, float], None]


class DuplexStream:
    """A bidirectional reliable stream between two hosts.

    ``a`` and ``b`` name the endpoints; :meth:`send_from_a` /
    :meth:`send_from_b` transmit toward the opposite end, which receives
    through the ``on_at_b`` / ``on_at_a`` callbacks (settable after
    construction because client and server usually wire themselves up
    separately).
    """

    def __init__(
        self,
        loop: EventLoop,
        net: Network,
        *host_names: str,
        name: str = "",
    ) -> None:
        if len(host_names) < 2:
            raise ValueError("a duplex stream spans at least two hosts")
        self.loop = loop
        self.name = name or "duplex"
        self.on_at_a: Optional[MessageHandler] = None
        self.on_at_b: Optional[MessageHandler] = None

        fwd_ab, rev_ab = net.duplex_paths(*host_names)
        self._a_to_b = Connection(
            loop, fwd_ab, rev_ab,
            on_message=lambda m, t: self._dispatch(self.on_at_b, m, t),
            name=f"{self.name}:a->b",
        )
        fwd_ba, rev_ba = net.duplex_paths(*reversed(host_names))
        self._b_to_a = Connection(
            loop, fwd_ba, rev_ba,
            on_message=lambda m, t: self._dispatch(self.on_at_a, m, t),
            name=f"{self.name}:b->a",
        )

    @staticmethod
    def _dispatch(handler: Optional[MessageHandler], message: Message, t: float) -> None:
        if handler is not None:
            handler(message, t)

    def send_from_a(self, message: Message) -> Message:
        """Transmit toward endpoint b."""
        return self._a_to_b.send(message)

    def send_from_b(self, message: Message) -> Message:
        """Transmit toward endpoint a."""
        return self._b_to_a.send(message)

    def close(self) -> None:
        """Tear down both directions."""
        self._a_to_b.close()
        self._b_to_a.close()

    @property
    def closed(self) -> bool:
        return self._a_to_b.closed and self._b_to_a.closed
