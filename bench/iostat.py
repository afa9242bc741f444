"""Bytes this process has read and written through system calls, from the
kernel's per-process counters (`rchar` and `wchar` in /proc/self/io).

They count every read and write call, whatever Python or OS interface made
it, so a rebuild that seeks and reads less shows as fewer bytes.
"""

from __future__ import annotations

import os


class IoCounter:
    """Probes the counters and leaves out the bytes the probes themselves read."""

    def __init__(self):
        self._probe_bytes = 0

    def sample(self) -> tuple:
        """(bytes read, bytes written) so far, not counting any probe."""
        fd = os.open("/proc/self/io", os.O_RDONLY)
        try:
            blob = os.read(fd, 4096)
        finally:
            os.close(fd)
        fields = dict(line.split(b":") for line in blob.splitlines() if b":" in line)
        # The kernel fills the text before it counts this read, so the text
        # holds every earlier probe's read but not this one.
        read = int(fields[b"rchar"]) - self._probe_bytes
        self._probe_bytes += len(blob)
        return read, int(fields[b"wchar"])

    def read_bytes(self) -> int:
        return self.sample()[0]

    def written_bytes(self) -> int:
        return self.sample()[1]
