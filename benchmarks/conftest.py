"""The benchmarks tune the shared SparkSession exactly as the unit tests
do; the fixture lives in ``tests/conftest.py``."""
from tests.conftest import _tuned_spark  # noqa: F401  (autouse, session-scoped)
