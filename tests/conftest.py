"""Hypothesis profiles. The default profile keeps each test's own example
count; ``--hypothesis-profile=ci`` raises it for tests that set none, such
as the scaled-cloud property test of ``test_geometry``, which CI runs on
its own under this profile."""

from hypothesis import settings

settings.register_profile("ci", max_examples=3000, deadline=None)
