"""Fixtures shared by the test modules."""

import json
import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """A test ends with no child process of this one left, running or unreaped:
    a sweep reaps every process it forks, and a CLI run leaves none behind."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({f'pid {pid}' if pid else 'still running'})")


class CallLog:
    """Entries appended to a file, one JSON line each, so that entries made
    in forked sweep processes are seen as well as this process's.  The
    processes append concurrently: compare the entries as a multiset."""

    def __init__(self, path, monkeypatch):
        self.path = path
        self._monkeypatch = monkeypatch

    def append(self, entry):
        with open(self.path, "a", encoding="utf-8") as log:
            log.write(json.dumps(entry) + "\n")

    def entries(self):
        """Every entry appended so far, in no particular order."""
        if not self.path.exists():
            return []
        return [json.loads(line) for line in self.path.read_text(encoding="utf-8").splitlines()]

    def record(self, module, name, describe=None):
        """Rebind module.`name` so that each call appends describe(*args);
        by default its positional arguments, each number as itself and any
        other argument as its type's name."""
        original = getattr(module, name)

        def recording(*args, **kwargs):
            self.append(describe(*args) if describe else
                        [arg if isinstance(arg, (int, float)) else type(arg).__name__
                         for arg in args])
            return original(*args, **kwargs)

        self._monkeypatch.setattr(module, name, recording)


@pytest.fixture
def call_log(tmp_path, monkeypatch):
    return CallLog(tmp_path / "calls.jsonl", monkeypatch)
