"""Settings shared by the test suite.

Hypothesis prints a `@reproduce_failure` blob with every falsifying example
it finds, so a failure that random search turned up can be pinned as found.
"""

from hypothesis import settings

settings.register_profile("chiralsep", print_blob=True)
settings.load_profile("chiralsep")
