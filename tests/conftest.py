import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# tests that run ``python -m gpmspace`` in a subprocess import these sources too
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# HYPOTHESIS_PROFILE=ci (the CI workflow sets it) prints a @reproduce_failure
# blob with each falsifying example; other runs keep hypothesis's defaults
settings.register_profile("ci", print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
