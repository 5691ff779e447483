"""Message transports for simulated rounds.

The default transport never leaves the process: it hands each frame straight
to the recipient while tallying exact byte counts per direction. The loopback
TCP transport pushes every frame through a real socket pair on 127.0.0.1, so
captured traffic matches the reported sizes; ``mobagg simulate --transport
tcp``, the collect benchmark and the transport tests run over it.

One thread plays both ends, so two socket details decide whether it is fast
and whether it finishes:

- Both sockets set ``TCP_NODELAY``. With Nagle's algorithm (RFC 896) on, a
  small segment sent while an earlier one is unacknowledged waits for the
  peer's delayed ACK, a 40 ms stall on a frame of a hundred bytes.
- ``deliver`` echoes a frame in chunks of at most ``CHUNK`` bytes, draining
  each chunk before it sends the next. Sending a whole large frame before
  reading any of it blocks once the socket buffers fill (a few MB), with no
  one left to read. The chunks land in one preallocated buffer.
"""

from __future__ import annotations

import socket
import struct

_LEN = struct.Struct("<I")

#: largest piece of a frame in flight at once over the TCP loopback
CHUNK = 1 << 16

#: member -> aggregator
UPLOAD = "upload"
#: aggregator -> member
DOWNLOAD = "download"


class InProcessTransport:
    """Counts frame bytes and returns the frame unchanged."""

    def __init__(self) -> None:
        self.bytes_by_direction = {UPLOAD: 0, DOWNLOAD: 0}

    def deliver(self, blob: bytes, direction: str) -> bytes:
        self.bytes_by_direction[direction] += len(blob)
        return blob

    def close(self) -> None:
        pass


class TcpLoopbackTransport:
    """Echoes every frame through a real TCP connection on localhost."""

    def __init__(self) -> None:
        self.bytes_by_direction = {UPLOAD: 0, DOWNLOAD: 0}
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        self._client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._client.connect(listener.getsockname())
        self._server, _ = listener.accept()
        listener.close()
        for sock in (self._client, self._server):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def deliver(self, blob: bytes, direction: str) -> bytes:
        self.bytes_by_direction[direction] += len(blob)
        frame = memoryview(_LEN.pack(len(blob)) + blob)
        received = memoryview(bytearray(len(frame)))
        for start in range(0, len(frame), CHUNK):
            end = min(start + CHUNK, len(frame))
            self._client.sendall(frame[start:end])
            filled = start
            while filled < end:
                got = self._server.recv_into(received[filled:end])
                if not got:
                    raise ConnectionError("loopback peer closed early")
                filled += got
        (length,) = _LEN.unpack_from(received)
        if length != len(blob):
            raise ConnectionError("loopback length prefix mismatch")
        return bytes(received[_LEN.size :])

    def close(self) -> None:
        self._client.close()
        self._server.close()
