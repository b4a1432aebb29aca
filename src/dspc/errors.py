"""Shared exception hierarchy.

Every error the pipeline can raise derives from DspcError.  The mapping of
error classes onto the CLI's exit codes lives in `cli.main`.
"""

from __future__ import annotations


class DspcError(Exception):
    """Base class for all compiler errors."""


class UsageError(DspcError):
    """Bad command-line invocation (exit code 1)."""
