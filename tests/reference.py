"""The scalar reference engine for differential tests.

:func:`repro.batch.batch_target` accepts only the exact
:class:`~repro.availability.MarkovEngine` type, so a subclass with no
overrides runs every search down the scalar per-candidate path: the
same chain solves, one candidate at a time.  Comparing a default
(batched) search against one on this engine pins the batched path
to the scalar reference.
"""

from repro.availability import MarkovEngine


class ScalarMarkovEngine(MarkovEngine):
    """The Markov engine, kept on the scalar search path."""
