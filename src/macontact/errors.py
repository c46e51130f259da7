"""Shared exception, kept importable for callers that catch it."""


class ConsistencyError(RuntimeError):
    """A guaranteed identity failed; nothing raises it, each is proved and tested."""
