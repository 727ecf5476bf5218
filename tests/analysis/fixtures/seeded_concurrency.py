"""Seeded CC001/CC003 violations for the concurrency rule family.

Not importable as part of the real package — this fixture only feeds the
analyzer tests (see README.md in this directory).
"""

import threading

_lock = threading.Lock()
_registry = []  # repro: guarded-by(_lock)

applied = 0
MAX_RETRIES = 3  # ALL_CAPS constant: never classified as an accumulator


# -- CC001: guarded module state ---------------------------------------------


def register_unlocked(item):
    _registry.append(item)  # seed:CC001-module-mutcall


def replace_unlocked(items):
    global _registry
    _registry = list(items)  # seed:CC001-module-store


def register_locked(item):
    with _lock:
        _registry.append(item)  # guard held: clean


def register_asserting(item):  # repro: holds(_lock)
    _registry.append(item)  # caller holds the guard: clean


class Frames:
    """CC001 on instance state: the latch contract on a frame table."""

    def __init__(self):
        self._latch = threading.Lock()
        self._frames = {}  # repro: guarded-by(_latch)

    def put_unlocked(self, key, frame):
        self._frames[key] = frame  # seed:CC001-attr-subscript

    def drop_unlocked(self, key):
        self._frames.pop(key)  # seed:CC001-attr-mutcall

    def put_locked(self, key, frame):
        with self._latch:
            self._frames[key] = frame  # guard held: clean

    def _evict(self, key):  # repro: holds(_latch)
        self._frames.pop(key)  # caller holds the guard: clean


# -- CC003: non-atomic read-modify-write on shared state ---------------------


def bump_applied():
    global applied
    applied += 1  # seed:CC003-global


class Recorder:
    """Shared through the module-level ``recorder`` below."""

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
        self.locked_count = 0
        self.total = 0.0

    def inc(self):
        self.count += 1  # seed:CC003-attr

    def add(self, amount):
        self.total += amount  # seed:CC003-attr-float

    def inc_locked(self):
        with self._lock:
            self.locked_count += 1  # lock held: clean


class Scratch:
    """Never reachable from module scope: RMW on it is private, not shared."""

    def __init__(self):
        self.n = 0

    def inc(self):
        self.n += 1  # not shared: clean


recorder = Recorder()


def scratch_sum(items):
    scratch = Scratch()
    for item in items:
        scratch.inc()
    return scratch.n
