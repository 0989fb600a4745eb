import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# tests that run ``python -m gpmspace`` in a subprocess import these sources too
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
