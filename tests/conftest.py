"""Fixtures shared by the test modules."""

import os
import pickle

import pytest


class CallLog:
    """A log that every process forked from this one appends to: each add
    writes one pickle in one write to a file opened for appending, so a
    count taken through it sees the calls of a split's children too."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def clear(self):
        self.path.write_bytes(b"")

    def add(self, entry):
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, pickle.dumps((os.getpid(), entry)))
        finally:
            os.close(fd)

    def entries(self):
        """Every (pid, entry) added so far, in the order they were written."""
        out = []
        with open(self.path, "rb") as f:
            while f.peek(1):
                out.append(pickle.load(f))
        return out


@pytest.fixture
def call_log(tmp_path):
    return CallLog(tmp_path / "calls.pkl")
