"""WebSocket frame sizes and messages for the chat channel.

Periscope delivers chat over WebSockets.  The study's traffic analysis
needs only each frame's wire size (RFC 6455 base framing: a 2, 4 or
10-byte header by payload length, plus a 4-byte mask key on
client-to-server frames) and the JSON payloads, so chat runs at token
fidelity and no frame is ever serialized.
"""

from __future__ import annotations

from typing import Any, Dict


def text_frame_size(text: str) -> int:
    """Wire size of an unmasked (server-to-client) text frame without
    serializing it (for traffic accounting at token fidelity)."""
    length = len(text.encode("utf-8"))
    if length < 126:
        header = 2
    elif length < 1 << 16:
        header = 4
    else:
        header = 10
    return header + length


def chat_message_json(
    username: str, body: str, has_avatar: bool, avatar_url: str = ""
) -> Dict[str, Any]:
    """The JSON shape of one chat message as the app receives it.

    Messages arrive even when the chat UI is off; what differs with chat
    *on* is that the app then fetches the profile pictures referenced by
    ``avatar_url`` (Section 5.1's traffic amplification).
    """
    message: Dict[str, Any] = {
        "kind": "chat",
        "username": username,
        "body": body,
    }
    if has_avatar:
        message["profile_image_url"] = avatar_url or (
            f"https://s3.amazonaws.com/profile-images/{username}.jpg"
        )
    return message
