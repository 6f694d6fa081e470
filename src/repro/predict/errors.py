"""Typed failures of the prediction subsystem.

Everything user-facing raises :class:`PredictError` with a
``found/expected`` statement plus a recovery hint (built by
:func:`repro._util.mismatch`, shared with every artifact loader), so
the CLI can map it to a clean ``exit 2`` instead of a traceback.
"""

from __future__ import annotations


class PredictError(RuntimeError):
    """A model could not be trained, loaded, or applied."""

