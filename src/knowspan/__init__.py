"""Knowledge-spanning distances, disruption scores, and moderated quadratic
regressions for category-coded bibliographic corpora."""

__version__ = "0.1.0"
