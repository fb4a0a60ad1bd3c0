"""Every hypothesis test in this suite draws the same examples on every run
of the suite, and keeps no database of failing examples between runs. A
test's own `@settings` still sets its `max_examples` and `deadline`."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
