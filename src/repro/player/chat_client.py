"""The app's chat pane and its traffic cost.

Chat JSON arrives over the WebSocket whether or not the pane is shown.
With the pane **on**, the app downloads the profile picture next to each
message — and since it does not cache images, a handful of active
chatters can multiply the session's downstream traffic (Section 5.1
measured ~500 kbps growing to 3.5 Mbps).  An optional cache implements
the paper's proposed mitigation, used by the ablation benchmark.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Union

from repro.netsim.connection import Message
from repro.netsim.events import EventLoop
from repro.protocols.http import HttpClient, HttpRequest, HttpResponse, HttpStatus
from repro.service.chat import ChatMessage

#: Image fetches run over a small pool of parallel connections (the HTTP
#: stack's default connection-per-host pool) — at a throttled access link
#: those flows collectively crowd out the single video stream, which is
#: the mechanics behind the paper's 2 Mbps QoE boundary.
AVATAR_POOL_CONNECTIONS = 4


class ChatClient:
    """Receives chat messages; fetches avatars when the pane is shown."""

    def __init__(
        self,
        loop: EventLoop,
        avatar_client: Union[HttpClient, Sequence[HttpClient], None],
        ui_on: bool,
        cache_avatars: bool = False,
    ) -> None:
        if isinstance(avatar_client, HttpClient):
            avatar_clients: List[HttpClient] = [avatar_client]
        else:
            avatar_clients = list(avatar_client or [])
        if ui_on and not avatar_clients:
            raise ValueError("chat UI on requires at least one avatar HTTP client")
        self.loop = loop
        self.avatar_clients = avatar_clients
        self._next_client = 0
        self.ui_on = ui_on
        self.cache_avatars = cache_avatars
        self.messages_received = 0
        self.avatar_requests = 0
        self.avatar_bytes_received = 0
        self.duplicate_avatar_downloads = 0
        self._seen_urls: Set[str] = set()
        self._cached: Set[str] = set()

    def on_message(self, message: Message, now: float) -> None:
        """Connection callback for the chat WebSocket."""
        if message.annotations.get("protocol") != "websocket":
            return
        chat = message.payload
        if not isinstance(chat, ChatMessage):
            return
        self.messages_received += 1
        if not self.ui_on or not chat.has_avatar:
            return
        if self.cache_avatars and chat.avatar_url in self._cached:
            return
        if chat.avatar_url in self._seen_urls:
            self.duplicate_avatar_downloads += 1
        self._seen_urls.add(chat.avatar_url)
        self.avatar_requests += 1
        client = self.avatar_clients[self._next_client % len(self.avatar_clients)]
        self._next_client += 1
        client.request(
            HttpRequest(
                "GET",
                f"/avatars/{chat.username}.jpg",
                headers={"x-size": str(chat.avatar_bytes)},
            ),
            lambda resp, t, url=chat.avatar_url: self._on_avatar(resp, url),
        )

    def _on_avatar(self, response: HttpResponse, url: str) -> None:
        if response.status == HttpStatus.OK:
            self.avatar_bytes_received += response.body_bytes
            if self.cache_avatars:
                self._cached.add(url)
